#pragma once

// A minimal blocking HTTP/1.1 keep-alive client over loopback: one
// connection per generator thread, one request in flight at a time.

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// Takes one complete response off the front of `buffer`: 1 when one was
/// parsed (its bytes removed; `close` set if the server will close), 0 when
/// more bytes are needed, -1 when the bytes are not an HTTP response.
int TakeResponse(std::string* buffer, HttpReply* reply, bool* close);

/// A connected TCP socket to 127.0.0.1:`port` with TCP_NODELAY, or -1.
int OpenLoopback(uint16_t port);

/// Steady-clock nanoseconds (the time base of every generator timestamp).
int64_t SteadyNowNs();

class HttpClient {
 public:
  explicit HttpClient(uint16_t port) : port_(port) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Writes `request` (complete raw bytes) and reads one response.
  /// `sent_ns` receives the steady time just before the first byte is
  /// written. Returns false on a transport failure; the connection is then
  /// dropped and the next call reconnects.
  bool RoundTrip(const std::string& request, HttpReply* reply,
                 int64_t* sent_ns);

  /// RoundTrip in two halves, for pipelining: Send writes one request
  /// (connecting first if needed), Receive reads the next response.
  bool Send(const std::string& request);
  bool Receive(HttpReply* reply);

  /// Opens the connection now instead of on the first RoundTrip.
  bool Connect();

 private:
  void Close();
  bool ReadResponse(HttpReply* reply);

  const uint16_t port_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the previous response
};

/// One-shot GET on a fresh connection; returns the status (0 on transport
/// failure) and fills `body`.
int HttpGet(uint16_t port, const std::string& path, std::string* body);

}  // namespace perfbench
