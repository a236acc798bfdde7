#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/obs.hpp"

namespace ocps::obs {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t trace_epoch() {
  static const std::uint64_t epoch = steady_now_ns();
  return epoch;
}

// Per-thread event ring. push() is called only by the owning thread; a
// tiny spinlock makes concurrent export (another thread scraping) safe
// without ever contending on the hot path — the lock is uncontended
// except during an export.
// A full ring overwrites its oldest event; obs.spans_dropped counts every
// such overwrite so a truncated trace export is detectable from metrics.
Counter& spans_dropped_counter() {
  static Counter& c = counter("obs.spans_dropped");
  return c;
}

struct SpanRing {
  std::vector<TraceEvent> events;  // capacity kRingCapacity, ring storage
  std::size_t next = 0;            // ring write position
  std::uint64_t total = 0;         // events ever pushed
  std::uint32_t tid = 0;
  std::atomic_flag lock = ATOMIC_FLAG_INIT;

  void push(TraceEvent e) {
    bool overwrote = false;
    while (lock.test_and_set(std::memory_order_acquire)) {
    }
    e.tid = tid;
    if (events.size() < kRingCapacity) {
      events.push_back(e);
    } else {
      events[next] = e;
      overwrote = true;
    }
    next = (next + 1) % kRingCapacity;
    ++total;
    lock.clear(std::memory_order_release);
    if (overwrote) spans_dropped_counter().add(1);
  }

  void snapshot(std::vector<TraceEvent>* out) {
    while (lock.test_and_set(std::memory_order_acquire)) {
    }
    // Emit in logical (oldest-to-newest) order, not rotated storage
    // order, so the stable sort in trace_events() keeps push order for
    // events whose coarse-clock timestamps tie.
    if (events.size() < kRingCapacity) {
      out->insert(out->end(), events.begin(), events.end());
    } else {
      out->insert(out->end(), events.begin() + static_cast<std::ptrdiff_t>(next),
                  events.end());
      out->insert(out->end(), events.begin(),
                  events.begin() + static_cast<std::ptrdiff_t>(next));
    }
    lock.clear(std::memory_order_release);
  }

  void clear() {
    while (lock.test_and_set(std::memory_order_acquire)) {
    }
    events.clear();
    next = 0;
    lock.clear(std::memory_order_release);
  }
};

struct RingDirectory {
  std::mutex mu;
  std::vector<std::shared_ptr<SpanRing>> rings;
  /// Rings of exited threads. Their events stay exportable until a new
  /// thread takes the ring over, so a process that starts one thread per
  /// connection keeps as many rings as it had threads alive at once, not
  /// one per connection ever served.
  std::vector<std::shared_ptr<SpanRing>> idle;
  std::uint32_t next_tid = 1;
};

RingDirectory& directory() {
  static RingDirectory* d = new RingDirectory();  // never destroyed
  return *d;
}

// A thread's claim on one ring, returned to the idle list at thread exit.
struct RingLease {
  std::shared_ptr<SpanRing> ring;

  RingLease() {
    spans_dropped_counter();  // register eagerly: scrapes always show it
    RingDirectory& d = directory();
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.idle.empty()) {
      ring = std::make_shared<SpanRing>();
      ring->events.reserve(kRingCapacity);
      d.rings.push_back(ring);  // directory keeps rings alive past threads
    } else {
      ring = std::move(d.idle.back());
      d.idle.pop_back();
    }
    ring->tid = d.next_tid++;
  }
  ~RingLease() {
    RingDirectory& d = directory();
    std::lock_guard<std::mutex> lock(d.mu);
    d.idle.push_back(std::move(ring));
  }
  RingLease(const RingLease&) = delete;
  RingLease& operator=(const RingLease&) = delete;
};

SpanRing& this_thread_ring() {
  thread_local RingLease lease;
  return *lease.ring;
}

void escape(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
}

}  // namespace

std::uint64_t now_ns() { return steady_now_ns() - trace_epoch(); }

ScopedSpan::ScopedSpan(const char* name, const char* cat) noexcept {
  if (!enabled()) return;
  name_ = name;
  cat_ = cat;
  start_ns_ = now_ns();
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  TraceEvent e;
  e.name = name_;
  e.cat = cat_;
  e.ts_ns = start_ns_;
  e.dur_ns = now_ns() - start_ns_;
  e.arg_name = arg_name_;
  e.arg = arg_;
  e.trace_id = trace_id_;
  e.instant = false;
  this_thread_ring().push(e);
}

void ScopedSpan::set_arg(const char* key, std::uint64_t value) noexcept {
  arg_name_ = key;
  arg_ = value;
}

void ScopedSpan::set_trace_id(std::uint64_t id) noexcept { trace_id_ = id; }

std::uint64_t ScopedSpan::elapsed_ns() const noexcept {
  return active_ ? now_ns() - start_ns_ : 0;
}

void instant_event(const char* name, const char* cat, const char* arg_name,
                   std::uint64_t arg, std::uint64_t trace_id) noexcept {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  e.dur_ns = 0;
  e.arg_name = arg_name;
  e.arg = arg;
  e.trace_id = trace_id;
  e.instant = true;
  this_thread_ring().push(e);
}

std::vector<TraceEvent> trace_events() {
  std::vector<std::shared_ptr<SpanRing>> rings;
  {
    RingDirectory& d = directory();
    std::lock_guard<std::mutex> lock(d.mu);
    rings = d.rings;
  }
  std::vector<TraceEvent> out;
  for (const auto& r : rings) r->snapshot(&out);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::vector<TraceEvent> trace_events_for(std::uint64_t trace_id) {
  std::vector<TraceEvent> out;
  if (trace_id == 0) return out;
  for (const TraceEvent& e : trace_events())
    if (e.trace_id == trace_id) out.push_back(e);
  return out;
}

void clear_trace_events() {
  std::vector<std::shared_ptr<SpanRing>> rings;
  {
    RingDirectory& d = directory();
    std::lock_guard<std::mutex> lock(d.mu);
    rings = d.rings;
  }
  for (const auto& r : rings) r->clear();
}

void write_chrome_trace(std::ostream& os) {
  std::vector<TraceEvent> events = trace_events();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"";
    escape(os, e.name);
    os << "\",\"cat\":\"";
    escape(os, e.cat ? e.cat : "ocps");
    os << "\",\"ph\":\"" << (e.instant ? 'i' : 'X') << "\",\"pid\":1"
       << ",\"tid\":" << e.tid << ",\"ts\":"
       << static_cast<double>(e.ts_ns) / 1000.0;
    if (e.instant) {
      os << ",\"s\":\"t\"";
    } else {
      os << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
    }
    if (e.trace_id != 0) {
      // Legacy flow-event linkage: viewers draw one connected tree for
      // all events sharing a bind_id, across threads.
      os << ",\"bind_id\":" << e.trace_id
         << ",\"flow_in\":true,\"flow_out\":true";
    }
    if (e.arg_name || e.trace_id != 0) {
      os << ",\"args\":{";
      bool afirst = true;
      if (e.arg_name) {
        os << '"';
        escape(os, e.arg_name);
        os << "\":" << e.arg;
        afirst = false;
      }
      if (e.trace_id != 0) {
        if (!afirst) os << ',';
        os << "\"trace_id\":" << e.trace_id;
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}";
}

void write_text_timeline(std::ostream& os) {
  for (const TraceEvent& e : trace_events()) {
    os << e.ts_ns << "ns";
    if (e.instant) {
      os << " !";
    } else {
      os << " +" << e.dur_ns << "ns";
    }
    os << " tid=" << e.tid << " " << (e.cat ? e.cat : "ocps") << "/"
       << e.name;
    if (e.trace_id != 0) os << " trace_id=" << e.trace_id;
    if (e.arg_name) os << " " << e.arg_name << "=" << e.arg;
    os << "\n";
  }
}

}  // namespace ocps::obs
