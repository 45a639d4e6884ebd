#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "bench.hpp"

namespace perfbench {

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"time\":\"%s\"}}\n",
                 i == 0 ? "" : ",", s.name, s.tid, static_cast<double>(s.t0 - base) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, i, s.parent,
                 s.inclusive ? "inclusive" : "self+children");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Tracer::print_summary(std::FILE* out) const {
  struct Agg {
    std::uint64_t count = 0;
    double total_ms = 0;
    double child_ms = 0;
    bool inclusive = false;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans_) {
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_ms += static_cast<double>(s.t1 - s.t0) / 1e6;
    a.inclusive = a.inclusive || s.inclusive;
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      by_name[p.name].child_ms += static_cast<double>(s.t1 - s.t0) / 1e6;
    }
  }
  std::fprintf(out, "spans: %-26s %9s %12s %12s\n", "name", "count", "total_ms", "self_ms");
  for (const auto& [name, a] : by_name) {
    if (a.inclusive) {
      std::fprintf(out, "spans: %-26s %9llu %12.3f %12s\n", name.c_str(),
                   static_cast<unsigned long long>(a.count), a.total_ms, "inclusive");
    } else {
      // Children run inside a rank fiber and overlap each other in host
      // time, so clamp: self time is never negative.
      std::fprintf(out, "spans: %-26s %9llu %12.3f %12.3f\n", name.c_str(),
                   static_cast<unsigned long long>(a.count), a.total_ms,
                   std::max(0.0, a.total_ms - a.child_ms));
    }
  }
}

Snapshot snapshot(const mvx::World& w) {
  Snapshot s;
  for (const auto& sample : w.telemetry().snapshot()) s[sample.name] += sample.value;
  return s;
}

void add_delta(Snapshot& a, const Snapshot& before, const Snapshot& after) {
  for (const auto& [name, v] : after) a[name] += v - get(before, name);
}

std::uint64_t digest(std::uint64_t h, const Snapshot& s, sim::Time end, std::uint64_t events) {
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [name, v] : s) {
    if (name.rfind("sim.wall.", 0) == 0) continue;
    mix(name.data(), name.size());
    mix(&v, sizeof v);
  }
  mix(&end, sizeof end);
  mix(&events, sizeof events);
  return h;
}

std::vector<std::byte> make_stream(std::uint64_t seed, std::size_t bytes) {
  std::vector<std::byte> v(bytes);
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(v.data() + i, &w, std::min<std::size_t>(8, bytes - i));
  }
  return v;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
  return u;
}

double run_phase(mvx::World& w, Round& r, Tracer* tr, bool timed,
                 const std::function<void(mvx::Communicator&, RunCtx&)>& fn) {
  Snapshot before;
  Usage u0;
  if (timed) {
    before = snapshot(w);
    u0 = usage_now();
  }
  const sim::Time v0 = w.simulator().now();
  double secs = 0;
  {
    Scope span(tr, timed ? "world.run.timed" : "world.run.warmup");
    RunCtx ctx{&r, tr, span.id(), timed};
    const std::int64_t t0 = host_ns();
    w.run([&](mvx::Communicator& c) { fn(c, ctx); });
    secs = static_cast<double>(host_ns() - t0) / 1e9;
  }
  if (timed) {
    const Usage u1 = usage_now();
    r.run_s += secs;
    r.virt_us += sim::to_us(w.end_time() - v0);
    r.cpu.user_s += u1.user_s - u0.user_s;
    r.cpu.sys_s += u1.sys_s - u0.sys_s;
    r.cpu.minor_faults += u1.minor_faults - u0.minor_faults;
    add_delta(r.tel, before, snapshot(w));
  }
  return secs;
}

void close_world(mvx::World& w, Round& r) {
  const Snapshot s = snapshot(w);
  for (const auto& [name, v] : s) r.tel_total[name] += v;
  r.digest = digest(r.digest, s, w.end_time(), w.events_processed());
  r.ranks = std::max(r.ranks, w.ranks());
  r.hcas = std::max(r.hcas, w.fabric().hca_count());
}

}  // namespace perfbench
