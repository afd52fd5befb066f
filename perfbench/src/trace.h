#pragma once

// In-memory span recorder for the traced replay. Spans are kept in memory
// while the replay runs and written out once it ends.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal naming the layer call
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  int64_t op_id = -1;     ///< the op of the seeded stream this span serves
};

/// Single-threaded recorder: Begin opens a span under the innermost open
/// one, End closes it. Spans must be closed innermost first.
class Tracer {
 public:
  int Begin(const char* name, int64_t op_id);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// One tab-separated line per span: id, parent, op, name, start, end.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII helper around Tracer::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op_id)
      : tracer_(tracer), id_(tracer->Begin(name, op_id)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once, children
/// clipped to the parent).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench
