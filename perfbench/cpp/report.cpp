#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hpp"
#include "util/timer.hpp"

namespace pb {

double now_s() { return cxu::wall_time(); }

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (const double x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0 - 1e-9) {
      t.percentile = p;
      break;
    }
  }
  t.value = quantile(v, t.percentile / 100.0);
  return t;
}

// ---- spans -----------------------------------------------------------------

namespace {
thread_local std::vector<int> t_span_stack;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const std::string& name, int parent, std::uint64_t op) {
  if (parent == kCurrent) {
    parent = t_span_stack.empty() ? -1 : t_span_stack.back();
  }
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent, op, 1.0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id, double units) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end = t;
  s.units = units;
}

std::vector<SpanLog::Summary> SpanLog::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children per span, to subtract the union of their intervals.
  std::vector<std::vector<std::size_t>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) kids[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<Summary> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t k : kids[i]) {
      const double a = std::max(spans_[k].start, s.start);
      const double b = std::min(spans_[k].end, s.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    const double dur = s.end - s.start;
    auto [it, fresh] = slot.emplace(s.name, out.size());
    if (fresh) out.push_back(Summary{s.name, 0, 0.0, 0.0, 0.0});
    Summary& sum = out[it->second];
    ++sum.count;
    sum.total_s += dur;
    sum.self_s += dur - covered;
    sum.units += s.units;
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  const std::vector<Summary> sums = summarize();
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": "
       << jstr(s.name) << ", \"start_s\": " << jnum(s.start - t0)
       << ", \"end_s\": " << jnum(s.end - t0) << ", \"parent\": " << s.parent
       << ", \"op\": " << s.op << ", \"units\": " << jnum(s.units) << "}";
  }
  os << "],\n\"self_times\": [";
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const Summary& s = sums[i];
    os << (i ? ",\n" : "\n") << "{\"name\": " << jstr(s.name)
       << ", \"count\": " << s.count << ", \"total_s\": " << jnum(s.total_s)
       << ", \"self_s\": " << jnum(s.self_s) << ", \"units\": "
       << jnum(s.units) << "}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(const std::string& name, std::uint64_t op)
    : id_(spans().begin(name, SpanLog::kCurrent, op)) {
  t_span_stack.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  t_span_stack.pop_back();
  spans().end(id_, units_);
}

AdoptSpan::AdoptSpan(int parent) { t_span_stack.push_back(parent); }

AdoptSpan::~AdoptSpan() { t_span_stack.pop_back(); }

// ---- report ----------------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  e2e_.push_back(Metric{name, value, unit, note});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  layer_.push_back(Metric{name, value, unit, note});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, jstr(value));
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, jnum(value));
}

void Report::samples(const std::string& key,
                     const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + jnum(values[i]);
  }
  samples_.emplace_back(key, out + "]");
}

void Report::op(const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (first_error_.empty()) first_error_ = error;
}

namespace {

void print_rows(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-36s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + jstr(ms[i].name) + ": {\"value\": " +
           jnum(ms[i].value) + ", \"unit\": " + jstr(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void Report::print(bool trace) const {
  const double share =
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 0.0;
  for (const auto& [k, v] : info_) {
    std::printf("# %s = %s\n", k.c_str(), v.c_str());
  }
  std::printf("%s metrics:\n", trace ? "per-layer" : "end-to-end");
  print_rows(trace ? layer_ : e2e_);
  std::printf("  %-36s %16.6g %-10s %llu of %llu operations failed their "
              "output check\n",
              "failed_share", share, "ratio",
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  // With every operation failed nothing was timed: no metrics.
  const bool timed = failed_ < attempted_;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              timed ? metrics_json(trace ? layer_ : e2e_).c_str() : "{}");
  std::fflush(stdout);
}

bool Report::write_record(const std::string& path, bool trace) const {
  std::ofstream os(path);
  if (!os) return false;
  auto rows = [&](const std::vector<Metric>& ms) {
    std::string out = "[";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      out += (i ? ",\n  " : "\n  ") + std::string("{\"name\": ") +
             jstr(ms[i].name) + ", \"value\": " + jnum(ms[i].value) +
             ", \"unit\": " + jstr(ms[i].unit) + ", \"note\": " +
             jstr(ms[i].note) + "}";
    }
    return out + "]";
  };
  os << "{\"trace\": " << (trace ? "true" : "false");
  for (const auto& [k, v] : info_) os << ",\n" << jstr(k) << ": " << v;
  for (const auto& [k, v] : samples_) os << ",\n" << jstr(k) << ": " << v;
  os << ",\n\"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"first_error\": " << jstr(first_error_)
     << ",\n\"end_to_end\": " << rows(e2e_)
     << ",\n\"per_layer\": " << rows(layer_) << "}\n";
  return static_cast<bool>(os);
}

}  // namespace pb
