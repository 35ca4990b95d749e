// Span self times from the program's own tracer. The trace is read back
// through obs::WriteChromeTrace into memory (with nanosecond timestamps)
// and folded per thread: a span's self time is its duration minus the
// durations of the spans nested directly inside it on the same thread.

#ifndef PERFBENCH_TRACE_SUMMARY_H_
#define PERFBENCH_TRACE_SUMMARY_H_

#include <map>
#include <string>

namespace perfbench {

struct SpanTotals {
  double total_seconds = 0.0;
  double self_seconds = 0.0;
  /// Part of total_seconds recorded on scheduler workers ("worker-N").
  double worker_seconds = 0.0;
};

/// The recorded trace as Chrome trace-event JSON with nanosecond
/// precision. Tracing must be disabled and every recording thread joined.
std::string CaptureChromeTrace();

/// Per span name totals over every "X" event of `chrome_json`.
std::map<std::string, SpanTotals> SummarizeSpans(const std::string& chrome_json);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_SUMMARY_H_
