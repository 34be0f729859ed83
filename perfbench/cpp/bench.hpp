#pragma once
// perfbench — shared pieces of the benchmark program: options, sample
// statistics, the span recorder of the traced run, and the result
// report every invocation prints.
//
// The program runs one workload per invocation (see workloads.cpp), and,
// in a traced invocation, the per-layer probes (probes.cpp). Workloads
// under cxrun re-enter this binary as rank processes (rank.cpp).

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

// ---- options ---------------------------------------------------------------

struct Opts {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes everywhere: the benchmark's own smoke test.
  bool smoke = false;
  /// Perturb every expected output so each check must fail (smoke test
  /// of the correctness gate).
  bool corrupt_expected = false;
  std::string self_exe;   ///< this binary (re-executed as cxrun ranks)
  std::string cxrun_exe;  ///< the cxrun launcher built next to it
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Seconds on the steady clock.
double now_s();

/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// The machine's summed CPU time counters from /proc/stat, in ticks.
/// On a virtual machine, steal is the time the hypervisor ran other
/// guests on this guest's CPUs; timings taken while it is high are slow
/// for reasons outside the program.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
CpuTimes cpu_times();
/// Steal time as a share of all CPU time between two readings (0 when
/// /proc/stat is unreadable).
double steal_share(const CpuTimes& before, const CpuTimes& after);

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// The tail a timing is reported with: the highest percentile of the
/// ladder 50/75/90/95/99/99.9 that has at least ten samples beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& v);

// ---- spans -----------------------------------------------------------------
//
// The traced run records a span around each call the benchmark makes
// into a layer's public functions: name, start, end, parent span and an
// operation id (the run, job or probe batch it belongs to), plus the
// number of work units inside (cells, bytes, round trips) so per-unit
// costs can be read off. Spans stay in memory and are written out when
// the invocation ends. A span's self time is its duration minus the
// part of it that its child spans cover.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
  double units = 1.0;
};

class SpanLog {
 public:
  /// Open a span. parent == kCurrent nests it under the calling thread's
  /// innermost open ScopedSpan.
  static constexpr int kCurrent = -2;
  int begin(const std::string& name, int parent = kCurrent,
            std::uint64_t op = 0);
  void end(int id, double units = 1.0);

  struct Summary {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double units = 0.0;
  };
  /// Per-name totals, in first-seen order.
  [[nodiscard]] std::vector<Summary> summarize() const;
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog& spans();

/// RAII span on the calling thread's span stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, std::uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_units(double u) { units_ = u; }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  int id_;
  double units_ = 1.0;
};

/// Nests the calling thread's spans under `parent`, a span opened on
/// another thread (the main thread, while a PE thread runs the probe).
class AdoptSpan {
 public:
  explicit AdoptSpan(int parent);
  ~AdoptSpan();
  AdoptSpan(const AdoptSpan&) = delete;
  AdoptSpan& operator=(const AdoptSpan&) = delete;
};

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< how it was measured, labels such as "rank 0 only"
};

class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// Raw samples, kept in the record only.
  void samples(const std::string& key, const std::vector<double>& values);

  /// Count one checked operation; `error` non-empty marks it failed.
  void op(const std::string& error);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& first_error() const noexcept {
    return first_error_;
  }

  /// Human-readable table (stdout) followed by the one-line JSON result.
  void print(bool trace) const;
  /// The full record: stamp, config, metrics with notes, failures.
  bool write_record(const std::string& path, bool trace) const;

 private:
  std::vector<Metric> e2e_, layer_;
  std::vector<std::pair<std::string, std::string>> info_, samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_error_;
};

/// JSON number with all its digits (NaN/inf print as null).
std::string jnum(double v);
std::string jstr(const std::string& s);

// ---- entry points ----------------------------------------------------------

/// Relative tolerance of a stencil checksum against the serial oracle
/// (the parallel sum adds the same cells in another order).
inline constexpr double kChecksumRelTol = 1e-9;
/// Relative tolerance of a cxrun checksum against the threaded run's:
/// the 12 significant digits the repository's cross-backend CI check
/// compares. Not bitwise: the reduction adds block sums in arrival
/// order, so the last bits vary from run to run on either backend.
inline constexpr double kCrossBackendRelTol = 1e-12;

struct WorkloadInfo {
  const char* name;
  /// Program threads the workload starts (PE threads + comm threads).
  int threads;
};
const std::vector<WorkloadInfo>& workloads();

/// Run one workload's untraced measurement (trace 0) into `rep`.
void measure_workload(const Opts& o, Report& rep);
/// Run the traced invocation (trace 1): untraced and traced passes of
/// the workload, then every layer probe, into `rep`.
void measure_layers(const Opts& o, Report& rep);

/// Rank side of a cxrun job (argv after "--rank-job").
int rank_main(int argc, char** argv);

}  // namespace pb
