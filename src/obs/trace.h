// Span emission in Chrome trace_event JSON format (--trace_out).
//
// Spans are RAII complete events ("ph":"X"): construction stamps the
// start, destruction stamps the duration, and the finished event is
// appended to a per-thread buffer — no shared write on the hot path
// beyond one uncontended mutex. write_trace_json() merges every thread's
// buffer into one {"traceEvents":[...]} document that loads directly in
// chrome://tracing and Perfetto.
//
// Same contract as obs/metrics.h: with tracing disabled (the default)
// every hook is a branch-on-atomic-flag no-op — no clock read, no
// allocation, no buffer registration — and spans only ever write to
// their own buffers, never to result streams.
//
// Timestamps are microseconds on std::chrono::steady_clock, anchored at
// the first enabled use in the process, so a trace always starts near
// t=0. Thread ids are small integers assigned in first-span order.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rlbf::obs {

/// Global tracing switch (default off), independent of the metrics
/// switch — a run may collect either, both, or neither.
bool tracing_enabled();
void set_tracing(bool on);

/// One finished span, as it will render into the JSON document.
struct TraceEvent {
  std::string name;
  std::string category;
  std::int64_t ts_us = 0;   // start, microseconds since the trace anchor
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;    // small integer, first-span order
};

/// RAII span. The const char* form is the hot-path hook: inactive
/// construction (tracing disabled) does no work at all. For dynamic
/// labels use labeled(), which only materializes the string when a span
/// will actually be recorded.
class Span {
 public:
  /// `name` and `category` must outlive the span (string literals).
  Span(const char* name, const char* category);
  ~Span();

  /// Dynamic-name form; `name` is copied only when tracing is enabled.
  static Span labeled(const std::string& name, const char* category);

  Span(Span&& other) noexcept;
  Span& operator=(Span&&) = delete;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Finish early; idempotent (the destructor becomes a no-op).
  void end();

  bool active() const { return active_; }

 private:
  Span() = default;

  const char* name_ = nullptr;       // static-name form
  std::string label_;                // dynamic-name form (name_ == nullptr)
  const char* category_ = "";
  std::int64_t start_us_ = 0;
  bool active_ = false;
};

/// Record a zero-duration marker span (retries, evictions, failures).
void trace_mark(const std::string& name, const char* category);

/// Microseconds since the trace anchor — for callers that correlate
/// their own logs with the trace (0 when tracing is disabled).
std::int64_t trace_now_us();

/// The wall-clock instant (microseconds since the Unix epoch, system
/// clock) latched TOGETHER with the steady-clock trace anchor — so
/// `anchor + ts_us` places any span on the wall clock. This is what
/// lets obs::merge align traces from different processes: steady-clock
/// timestamps are process-relative and meaningless across workers, the
/// epoch anchor is shared ground truth (up to host clock sync). 0 when
/// tracing was never enabled in this process.
std::int64_t trace_epoch_anchor_us();

/// Merge every thread's buffer (event order: thread registration, then
/// emission order within a thread) — for tests.
std::vector<TraceEvent> trace_events_snapshot();

/// Write the Chrome trace_event document: always a valid document
/// (possibly with an empty traceEvents array), laid out exactly as
/// obs::write_spliced_trace_json lays out a one-process splice (every
/// span on pid 1, no process_name row). Files go through
/// obs::write_file.
void write_trace_json(std::ostream& os);

/// Drop every buffered event (tests, bench repeats).
void clear_trace();

}  // namespace rlbf::obs
