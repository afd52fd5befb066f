#pragma once

// The load generator: one process, at most nproc threads and connections.
//
// Open loop: one thread drives every connection through poll(2), sending
// each op at its scheduled (Poisson) instant on a free connection and
// charging latency from that instant, so a stall also charges the ops
// queued behind it. Closed loop: one blocking thread per connection sends
// a fixed op count back to back, which gives capacity.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "http_client.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

/// Judges one answered op (2xx already checked): true when its body is
/// correct. Called from generator threads; must be thread-safe.
using AnswerCheck = std::function<bool(size_t stream_index, const HttpReply&)>;

struct PhaseResult {
  std::vector<OpTiming> timings;  ///< one per op of the phase, in order
  double elapsed_s = 0;           ///< first scheduled send to last response
  size_t transport_errors = 0;
  size_t refused = 0;             ///< 429 and 5xx answers
  size_t wrong = 0;               ///< 2xx answers the check rejected
  size_t other_status = 0;        ///< any other non-2xx answer
};

/// Completion flags shared by both phases, indexed by stream position:
/// a remove waits for the insert it undoes to be acknowledged.
class AckBoard {
 public:
  explicit AckBoard(size_t n) : acked_(new std::atomic<bool>[n]) {
    for (size_t i = 0; i < n; ++i) acked_[i].store(false);
  }
  void Set(size_t i) { acked_[i].store(true, std::memory_order_release); }
  bool Get(size_t i) const {
    return acked_[i].load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<std::atomic<bool>[]> acked_;
};

/// While alive, one idle-priority (SCHED_IDLE) thread per CPU spins with a
/// pause instruction, so an idle virtual CPU keeps running instead of
/// halting. On a virtual machine a halted CPU that must wake for a request
/// waits for the hypervisor to schedule it, which on a shared host adds
/// tenths of a millisecond to loopback round trips at random; the spinners
/// give way to any runnable thread at once and send no traffic.
class IdleSpinners {
 public:
  explicit IdleSpinners(size_t cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Sends stream[first, first + schedule_ns.size()) open-loop over
/// `connections` connections, op i at schedule_ns[i] after the start.
PhaseResult RunOpenLoop(uint16_t port, const std::vector<Op>& stream,
                        size_t first, const std::vector<int64_t>& schedule_ns,
                        size_t connections, const AnswerCheck& check,
                        AckBoard* acks);

/// Requests each closed-loop connection keeps outstanding (HTTP/1.1
/// pipelining; the server answers them in order).
inline constexpr size_t kClosedLoopPipelineDepth = 8;

/// Sends stream[first, first + count) closed-loop from `connections`
/// threads, each with its own connection and up to
/// kClosedLoopPipelineDepth requests in flight on it.
PhaseResult RunClosedLoop(uint16_t port, const std::vector<Op>& stream,
                          size_t first, size_t count, size_t connections,
                          const AnswerCheck& check, AckBoard* acks);

}  // namespace perfbench
