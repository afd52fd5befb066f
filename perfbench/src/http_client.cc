#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace perfbench {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

int OpenLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // No answer in this benchmark takes anywhere near this long; the timeout
  // only keeps a wedged server from hanging a blocking client.
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool HttpClient::Connect() {
  if (fd_ < 0) fd_ = OpenLoopback(port_);
  return fd_ >= 0;
}

bool HttpClient::Send(const std::string& request) {
  if (fd_ < 0 && !Connect()) return false;
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool HttpClient::Receive(HttpReply* reply) {
  if (fd_ < 0) return false;
  if (!ReadResponse(reply)) {
    Close();
    return false;
  }
  return true;
}

bool HttpClient::RoundTrip(const std::string& request, HttpReply* reply,
                           int64_t* sent_ns) {
  *sent_ns = SteadyNowNs();
  return Send(request) && Receive(reply);
}

int TakeResponse(std::string* buffer, HttpReply* reply, bool* close) {
  const size_t header_end = buffer->find("\r\n\r\n");
  if (header_end == std::string::npos) return 0;
  // Status line: HTTP/1.1 NNN Text
  if (buffer->size() < 12 || buffer->compare(0, 5, "HTTP/") != 0) return -1;
  reply->status = std::atoi(buffer->c_str() + 9);
  *close = false;
  size_t content_length = 0;
  size_t pos = buffer->find("\r\n") + 2;
  while (pos < header_end) {
    const size_t eol = buffer->find("\r\n", pos);
    const size_t colon = buffer->find(':', pos);
    if (colon != std::string::npos && colon < eol) {
      std::string name = buffer->substr(pos, colon - pos);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      size_t v = colon + 1;
      while (v < eol && (*buffer)[v] == ' ') ++v;
      const std::string value = buffer->substr(v, eol - v);
      if (name == "content-length") {
        content_length = std::strtoull(value.c_str(), nullptr, 10);
      } else if (name == "connection") {
        *close = value == "close";
      }
    }
    pos = eol + 2;
  }
  const size_t body_start = header_end + 4;
  if (buffer->size() < body_start + content_length) return 0;
  reply->body.assign(*buffer, body_start, content_length);
  buffer->erase(0, body_start + content_length);
  return 1;
}

bool HttpClient::ReadResponse(HttpReply* reply) {
  char chunk[16384];
  while (true) {
    bool close = false;
    const int got = TakeResponse(&buffer_, reply, &close);
    if (got < 0) return false;
    if (got > 0) {
      if (close) Close();
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

int HttpGet(uint16_t port, const std::string& path, std::string* body) {
  HttpClient client(port);
  HttpReply reply;
  int64_t sent = 0;
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
  if (!client.RoundTrip(request, &reply, &sent)) return 0;
  if (body != nullptr) *body = std::move(reply.body);
  return reply.status;
}

}  // namespace perfbench
