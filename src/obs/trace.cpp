#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/merge.h"

namespace rlbf::obs {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_anchor_latched{false};

/// All timestamps are measured from one per-process anchor so a trace
/// always starts near t=0. The anchor is latched on first use, and the
/// wall clock is read at the same instant so span timestamps can be
/// placed on a cross-process timebase (trace_epoch_anchor_us).
struct Anchor {
  std::chrono::steady_clock::time_point steady;
  std::int64_t epoch_us = 0;
};

const Anchor& trace_anchor() {
  static const Anchor anchor = [] {
    Anchor a;
    a.steady = std::chrono::steady_clock::now();
    a.epoch_us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count();
    return a;
  }();
  return anchor;
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - trace_anchor().steady)
      .count();
}

/// Per-thread event buffer. Threads append under their own mutex (only
/// contended by a concurrent dump); the global list keeps buffers alive
/// after their thread exits so pool workers' spans survive pool
/// teardown.
struct ThreadBuffer {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct BufferList {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

BufferList& buffer_list() {
  // Leaked: spans may finish during static destruction.
  static BufferList* list = new BufferList();
  return *list;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    BufferList& list = buffer_list();
    std::lock_guard<std::mutex> lock(list.mu);
    b->tid = static_cast<std::uint32_t>(list.buffers.size());
    list.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void record(std::string name, const char* category, std::int64_t ts_us,
            std::int64_t dur_us) {
  ThreadBuffer& buf = local_buffer();
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = category;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.tid = buf.tid;
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(std::move(ev));
}

}  // namespace

bool tracing_enabled() { return g_tracing.load(std::memory_order_relaxed); }

void set_tracing(bool on) {
  if (on) {
    trace_anchor();  // latch the anchor before the first span
    g_anchor_latched.store(true, std::memory_order_relaxed);
  }
  g_tracing.store(on, std::memory_order_relaxed);
}

std::int64_t trace_epoch_anchor_us() {
  return g_anchor_latched.load(std::memory_order_relaxed)
             ? trace_anchor().epoch_us
             : 0;
}

Span::Span(const char* name, const char* category) {
  if (!tracing_enabled()) return;  // inactive: no clock read, no allocation
  name_ = name;
  category_ = category;
  start_us_ = now_us();
  active_ = true;
}

Span Span::labeled(const std::string& name, const char* category) {
  Span span;
  if (!tracing_enabled()) return span;
  span.label_ = name;  // copy only when a span will actually be recorded
  span.category_ = category;
  span.start_us_ = now_us();
  span.active_ = true;
  return span;
}

Span::Span(Span&& other) noexcept
    : name_(other.name_),
      label_(std::move(other.label_)),
      category_(other.category_),
      start_us_(other.start_us_),
      active_(other.active_) {
  other.active_ = false;
}

Span::~Span() { end(); }

void Span::end() {
  if (!active_) return;
  active_ = false;
  const std::int64_t end_us = now_us();
  record(name_ != nullptr ? std::string(name_) : std::move(label_), category_,
         start_us_, end_us - start_us_);
}

void trace_mark(const std::string& name, const char* category) {
  if (!tracing_enabled()) return;
  record(name, category, now_us(), 0);
}

std::int64_t trace_now_us() {
  if (!tracing_enabled()) return 0;
  return now_us();
}

std::vector<TraceEvent> trace_events_snapshot() {
  std::vector<TraceEvent> out;
  BufferList& list = buffer_list();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(list.mu);
    buffers = list.buffers;
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

void write_trace_json(std::ostream& os) {
  // A one-process splice: every span on pid 1 and no process_name row.
  SplicedTrace trace;
  for (TraceEvent& ev : trace_events_snapshot()) {
    trace.events.push_back({std::move(ev), 1});
  }
  trace.epoch_anchor_us = trace_epoch_anchor_us();
  write_spliced_trace_json(os, trace);
}

void clear_trace() {
  BufferList& list = buffer_list();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(list.mu);
    buffers = list.buffers;
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    buf->events.clear();
  }
}

}  // namespace rlbf::obs
