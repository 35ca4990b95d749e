#include "trace_summary.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <vector>

#include "util/obs/trace.h"

namespace perfbench {

namespace {

struct Event {
  int64_t start_ns;
  int64_t dur_ns;
  std::string name;
};

// Reads the number after `key` at or past `pos` in one event object.
bool ReadNumber(const std::string& json, const char* key, size_t* pos,
                double* out) {
  const size_t at = json.find(key, *pos);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at + std::char_traits<char>::length(key);
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  *pos = static_cast<size_t>(end - json.c_str());
  return end != begin;
}

}  // namespace

std::string CaptureChromeTrace() {
  std::ostringstream out;
  // The writer streams timestamps as doubles in microseconds; fixed
  // notation with three decimals keeps every nanosecond.
  out << std::fixed << std::setprecision(3);
  faircap::obs::WriteChromeTrace(out);
  return out.str();
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::string& chrome_json) {
  // Events as WriteChromeTrace emits them, fields in this order:
  // {"ph":"X","pid":1,"tid":T,"ts":US,"dur":US,"name":"N"[,"args":{..}]}
  std::map<int64_t, std::vector<Event>> by_thread;
  std::map<int64_t, bool> is_worker;
  // Thread names: {"ph":"M","pid":1,"tid":T,"name":"thread_name",
  // "args":{"name":"worker-3"}}
  const std::string meta = "{\"ph\":\"M\"";
  const std::string meta_name = "\"args\":{\"name\":\"";
  for (size_t pos = 0;
       (pos = chrome_json.find(meta, pos)) != std::string::npos;) {
    pos += meta.size();
    double tid = 0.0;
    if (!ReadNumber(chrome_json, "\"tid\":", &pos, &tid)) break;
    const size_t at = chrome_json.find(meta_name, pos);
    if (at == std::string::npos) break;
    pos = at + meta_name.size();
    is_worker[static_cast<int64_t>(tid)] =
        chrome_json.compare(pos, 7, "worker-") == 0;
  }

  const std::string marker = "{\"ph\":\"X\"";
  size_t pos = 0;
  while ((pos = chrome_json.find(marker, pos)) != std::string::npos) {
    pos += marker.size();
    double tid = 0.0;
    double ts = 0.0;
    double dur = 0.0;
    if (!ReadNumber(chrome_json, "\"tid\":", &pos, &tid) ||
        !ReadNumber(chrome_json, "\"ts\":", &pos, &ts) ||
        !ReadNumber(chrome_json, "\"dur\":", &pos, &dur)) {
      break;
    }
    const std::string name_key = "\"name\":\"";
    const size_t name_at = chrome_json.find(name_key, pos);
    if (name_at == std::string::npos) break;
    const size_t name_begin = name_at + name_key.size();
    const size_t name_end = chrome_json.find('"', name_begin);
    if (name_end == std::string::npos) break;
    by_thread[static_cast<int64_t>(tid)].push_back(
        {std::llround(ts * 1e3), std::llround(dur * 1e3),
         chrome_json.substr(name_begin, name_end - name_begin)});
    pos = name_end;
  }

  std::map<std::string, SpanTotals> totals;
  for (auto& [tid, events] : by_thread) {
    const bool worker = is_worker[tid];
    // Parents sort before the children they enclose: by start, then
    // longest first.
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.dur_ns > b.dur_ns;
              });
    std::vector<int64_t> child_ns(events.size(), 0);
    std::vector<size_t> open;  // indices of enclosing spans
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      while (!open.empty()) {
        const Event& top = events[open.back()];
        if (top.start_ns + top.dur_ns > e.start_ns) break;
        open.pop_back();
      }
      if (!open.empty()) child_ns[open.back()] += e.dur_ns;
      open.push_back(i);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      SpanTotals& t = totals[events[i].name];
      const double seconds = static_cast<double>(events[i].dur_ns) * 1e-9;
      t.total_seconds += seconds;
      if (worker) t.worker_seconds += seconds;
      t.self_seconds +=
          static_cast<double>(events[i].dur_ns - child_ns[i]) * 1e-9;
    }
  }
  return totals;
}

}  // namespace perfbench
