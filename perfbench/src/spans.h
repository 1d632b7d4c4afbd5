// In-memory span recorder of the traced mode. Spans are recorded from the
// benchmark's own files around its calls into each layer (submit, ticket
// get, append, tick, refresh, engine and kernel probes), plus the stage
// spans of the QueryTrace attached to each one-shot request. Spans of one
// request share its request id. Written out when the run ends, together
// with a per-name table of total and self time (span minus the part of it
// its children cover).
#ifndef USTDB_PERFBENCH_SPANS_H_
#define USTDB_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model.h"
#include "obs/trace.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not tied to one request
  int32_t shard = -1;
  std::string name;
  Clock::time_point begin;
  Clock::time_point end;
};

/// Records nothing and reads no clock when disabled.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (0 when disabled).
  uint64_t Begin(std::string name, uint64_t parent = 0);
  /// Closes span `id` now.
  void End(uint64_t id);
  /// Records a finished span; returns its id.
  uint64_t Add(std::string name, uint64_t parent, uint64_t request,
               Clock::time_point begin, Clock::time_point end,
               int32_t shard = -1);
  /// Copies the stage spans of `trace` under `parent`: queue, dispatch and
  /// merge spans become children of `parent`, executor stage spans become
  /// children of the same shard's enclosing dispatch span.
  void AddTrace(const obs::QueryTrace& trace, uint64_t parent,
                uint64_t request);
  uint64_t NextRequestId() { return ++last_request_; }

  /// Writes every span as JSON to `path`.
  bool WriteJson(const std::string& path) const;
  /// Per-name count, total and self milliseconds, as printable text.
  std::string Table() const;

 private:
  bool enabled_;
  uint64_t last_request_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;  ///< index = id - 1
};

}  // namespace perfbench

#endif  // USTDB_PERFBENCH_SPANS_H_
