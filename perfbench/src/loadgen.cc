#include "loadgen.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Both phases start this long after set-up so connections are open first.
constexpr int64_t kStartDelayNs = 50'000'000;

// Files one answered (or failed) op into the phase's counters.
void Classify(bool delivered, const HttpReply& reply, bool correct,
              OpTiming* t, PhaseResult* r) {
  if (!delivered) {
    ++r->transport_errors;
  } else if (reply.status == 429 || reply.status >= 500) {
    ++r->refused;
  } else if (reply.status < 200 || reply.status >= 300) {
    ++r->other_status;
  } else if (!correct) {
    ++r->wrong;
  } else {
    t->ok = true;
  }
}

struct Connection {
  int fd = -1;
  const std::string* out = nullptr;  ///< request being written
  size_t out_off = 0;
  std::string in;
  int64_t op = -1;  ///< phase index in flight, -1 when idle
  int64_t free_ns = 0;
};

bool OpenNonBlocking(uint16_t port, Connection* c) {
  c->fd = OpenLoopback(port);
  if (c->fd < 0) return false;
  ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
  c->in.clear();
  return true;
}

// Writes what the socket takes; false on a transport failure.
bool Flush(Connection* c) {
  while (c->out != nullptr && c->out_off < c->out->size()) {
    const ssize_t n = ::send(c->fd, c->out->data() + c->out_off,
                             c->out->size() - c->out_off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    c->out_off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

IdleSpinners::IdleSpinners(size_t cpus) {
  for (size_t i = 0; i < cpus; ++i) {
    threads_.emplace_back([this, i]() {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(i), &set);
      ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
      while (!stop_.load(std::memory_order_relaxed)) CpuRelax();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

PhaseResult RunOpenLoop(uint16_t port, const std::vector<Op>& stream,
                        size_t first, const std::vector<int64_t>& schedule_ns,
                        size_t connections, const AnswerCheck& check,
                        AckBoard* acks) {
  // Without timer slack the poll timeouts below may fire up to 50 us late;
  // a raised priority keeps the server's threads from delaying sends (both
  // are best effort: without the privilege the generator runs as is).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -10);
  PhaseResult result;
  const size_t count = schedule_ns.size();
  result.timings.resize(count);
  std::vector<Connection> conns(std::max<size_t>(connections, 1));
  for (Connection& c : conns) OpenNonBlocking(port, &c);
  const int64_t t0 = SteadyNowNs() + kStartDelayNs;
  for (Connection& c : conns) c.free_ns = 0;
  auto now_ns = [&]() { return SteadyNowNs() - t0; };

  size_t next_due = 0;
  std::deque<size_t> ready;  // due, not yet sent, in stream order
  size_t completed = 0;
  std::vector<pollfd> fds;
  std::vector<size_t> fd_conn;
  char chunk[16384];

  auto finish = [&](Connection& c, bool delivered, const HttpReply& reply) {
    const size_t i = static_cast<size_t>(c.op);
    OpTiming& t = result.timings[i];
    t.done_ns = now_ns();
    const bool correct =
        delivered && reply.status >= 200 && reply.status < 300 &&
        check(first + i, reply);
    Classify(delivered, reply, correct, &t, &result);
    acks->Set(first + i);
    c.op = -1;
    c.out = nullptr;
    c.free_ns = t.done_ns;
    ++completed;
  };
  auto fail = [&](Connection& c) {
    finish(c, false, HttpReply{});
    ::close(c.fd);
    OpenNonBlocking(port, &c);
  };

  while (completed < count) {
    const int64_t now = now_ns();
    while (next_due < count && schedule_ns[next_due] <= now) {
      ready.push_back(next_due++);
    }
    // Hand due ops, in order, to idle connections (longest idle first).
    bool blocked = false;
    while (!ready.empty() && !blocked) {
      Connection* idle = nullptr;
      for (Connection& c : conns) {
        if (c.op < 0 && c.fd >= 0 &&
            (idle == nullptr || c.free_ns < idle->free_ns)) {
          idle = &c;
        }
      }
      if (idle == nullptr) break;
      const size_t i = ready.front();
      const Op& op = stream[first + i];
      if (op.depends_on >= 0 &&
          !acks->Get(static_cast<size_t>(op.depends_on))) {
        blocked = true;
        break;
      }
      ready.pop_front();
      OpTiming& t = result.timings[i];
      t.scheduled_ns = schedule_ns[i];
      t.free_ns = idle->free_ns;
      t.sent_ns = now_ns();
      idle->op = static_cast<int64_t>(i);
      idle->out = &op.request;
      idle->out_off = 0;
      if (!Flush(idle)) fail(*idle);
    }
    // Sleep until a response arrives or the next op falls due.
    fds.clear();
    fd_conn.clear();
    for (size_t k = 0; k < conns.size(); ++k) {
      if (conns[k].op < 0) continue;
      short events = POLLIN;
      if (conns[k].out != nullptr && conns[k].out_off < conns[k].out->size()) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{conns[k].fd, events, 0});
      fd_conn.push_back(k);
    }
    int64_t wait_ns = 100'000'000;
    if (blocked) {
      wait_ns = 20'000;
    } else if (!ready.empty() && fds.size() < conns.size()) {
      wait_ns = 0;
    } else if (next_due < count) {
      wait_ns = std::min(wait_ns, std::max<int64_t>(
                                      schedule_ns[next_due] - now_ns(), 0));
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    const int n = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (n <= 0) continue;
    for (size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      Connection& c = conns[fd_conn[f]];
      if ((fds[f].revents & POLLOUT) != 0 && !Flush(&c)) {
        fail(c);
        continue;
      }
      if ((fds[f].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      bool broken = false;
      while (true) {
        const ssize_t got = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
          c.in.append(chunk, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        broken = !(got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        break;
      }
      HttpReply reply;
      bool close = false;
      const int parsed = TakeResponse(&c.in, &reply, &close);
      if (parsed > 0) {
        finish(c, true, reply);
        if (close) {
          ::close(c.fd);
          OpenNonBlocking(port, &c);
        }
      } else if (parsed < 0 || broken) {
        fail(c);
      }
    }
  }
  for (Connection& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  int64_t end = 0;
  for (const OpTiming& t : result.timings) end = std::max(end, t.done_ns);
  result.elapsed_s =
      count == 0 ? 0 : static_cast<double>(end - schedule_ns.front()) / 1e9;
  return result;
}

PhaseResult RunClosedLoop(uint16_t port, const std::vector<Op>& stream,
                          size_t first, size_t count, size_t connections,
                          const AnswerCheck& check, AckBoard* acks) {
  PhaseResult result;
  result.timings.resize(count);
  std::atomic<size_t> next{0};
  std::mutex merge_mutex;
  const int64_t t0 = SteadyNowNs() + kStartDelayNs;

  auto worker = [&]() {
    HttpClient client(port);
    client.Connect();
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::max<int64_t>(t0 - SteadyNowNs(), 0)));
    PhaseResult local;
    std::deque<size_t> in_flight;  // phase indexes, in send order
    bool broken = false;           // a transport failure fails the pipeline
    auto complete_one = [&]() {
      const size_t i = in_flight.front();
      in_flight.pop_front();
      OpTiming& t = result.timings[i];
      HttpReply reply;
      const bool delivered = !broken && client.Receive(&reply);
      broken = !delivered && !in_flight.empty();
      t.done_ns = SteadyNowNs() - t0;
      const bool correct = delivered && reply.status >= 200 &&
                           reply.status < 300 && check(first + i, reply);
      Classify(delivered, reply, correct, &t, &local);
      acks->Set(first + i);
    };
    while (true) {
      if (in_flight.size() >= kClosedLoopPipelineDepth) {
        complete_one();
        continue;
      }
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      const Op& op = stream[first + i];
      if (op.depends_on >= 0) {
        // The insert may sit in this connection's own pipeline.
        while (!acks->Get(static_cast<size_t>(op.depends_on))) {
          if (!in_flight.empty()) {
            complete_one();
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          }
        }
      }
      OpTiming& t = result.timings[i];
      t.free_ns = SteadyNowNs() - t0;
      t.scheduled_ns = t.free_ns;
      t.sent_ns = t.free_ns;
      in_flight.push_back(i);
      if (broken || !client.Send(op.request)) broken = true;
      if (broken) complete_one();
    }
    while (!in_flight.empty()) complete_one();
    std::lock_guard<std::mutex> lock(merge_mutex);
    result.transport_errors += local.transport_errors;
    result.refused += local.refused;
    result.other_status += local.other_status;
    result.wrong += local.wrong;
  };
  std::vector<std::thread> pool;
  for (size_t k = 0; k < std::max<size_t>(connections, 1); ++k) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();
  int64_t end = 0;
  for (const OpTiming& t : result.timings) end = std::max(end, t.done_ns);
  result.elapsed_s = static_cast<double>(end) / 1e9;
  return result;
}

}  // namespace perfbench
