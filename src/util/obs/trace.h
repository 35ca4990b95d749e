// Span tracer: RAII scopes recorded into lock-free per-thread buffers and
// flushed at run end as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. A whole pipeline run — ingest
// segments, index warm-start, per-pattern lattice evaluation, each
// evaluation's accumulate and solve, greedy selection — lands on one
// timeline with a
// track per thread (scheduler workers name their tracks "worker-N").
//
// Cost contract: with tracing disabled (the default) constructing a
// TraceSpan is one relaxed atomic load and a branch — no clock read, no
// allocation, nothing written — so production hot paths stay within noise
// of uninstrumented code. With tracing enabled each span costs two
// steady_clock reads and one push_back into a thread-local vector; no
// locks are taken after a thread's first event.
//
// Span names must be string literals (static storage): the tracer stores
// the pointer, not a copy. Variable identity (e.g. the pattern index)
// goes in the integer arg, emitted as "args":{"v":N}.
//
// Flush protocol: WriteChromeTrace() must not race live span writers.
// The pipeline satisfies this by construction — the CLI flushes after
// FairCap::Run() returns, which destroys (joins) the scheduler first.

#ifndef FAIRCAP_UTIL_OBS_TRACE_H_
#define FAIRCAP_UTIL_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "util/status.h"

namespace faircap {
namespace obs {

namespace internal {

extern std::atomic<bool> g_tracing_enabled;

struct TraceEvent {
  const char* name;    ///< string literal
  uint64_t start_ns;   ///< since the tracing epoch
  uint64_t dur_ns;
  int64_t arg;         ///< -1 = none
};

/// Nanoseconds since the tracing epoch (set by EnableTracing).
uint64_t TraceNowNs();

/// Appends one completed span to the calling thread's buffer.
void RecordTraceEvent(const char* name, uint64_t start_ns, uint64_t dur_ns,
                      int64_t arg);

}  // namespace internal

/// Whether spans are being recorded. The one check on every hot path.
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Starts recording: resets the epoch, drops events from any previous
/// session, and flips the enabled flag.
void EnableTracing();

/// Stops recording; buffered events stay available for WriteChromeTrace.
void DisableTracing();

/// Drops all buffered events and thread-name registrations.
void ClearTrace();

/// Names the calling thread's track in the emitted trace ("worker-3",
/// "main", "ingest-0"). Cheap and callable regardless of enablement; the
/// name sticks for the thread's lifetime.
void SetThreadTraceName(const std::string& name);

/// Total buffered span events across all threads (tests; takes the
/// registry lock — do not call from hot paths).
size_t TraceEventCount();

/// Emits the buffered events as Chrome trace-event JSON: one "X"
/// (complete) event per span with microsecond timestamps, plus
/// "thread_name" metadata so Perfetto labels each track. Caller must
/// ensure no thread is concurrently recording (join workers first).
void WriteChromeTrace(std::ostream& out);

/// WriteChromeTrace to a file.
Status WriteChromeTraceFile(const std::string& path);

/// RAII span. The constructor samples the clock only when tracing is
/// enabled; the destructor records the completed event. Enablement is
/// latched at construction, so a span that straddles DisableTracing still
/// records (into a buffer nobody will flush until re-enabled — harmless).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : TraceSpan(name, -1) {}
  TraceSpan(const char* name, int64_t arg) {
    if (TracingEnabled()) {
      name_ = name;
      arg_ = arg;
      start_ns_ = internal::TraceNowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      const uint64_t end_ns = internal::TraceNowNs();
      internal::RecordTraceEvent(name_, start_ns_,
                                 end_ns - start_ns_, arg_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< null = tracing was off at construction
  uint64_t start_ns_ = 0;
  int64_t arg_ = -1;
};

}  // namespace obs
}  // namespace faircap

#endif  // FAIRCAP_UTIL_OBS_TRACE_H_
