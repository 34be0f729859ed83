// perfbench — the charmx benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --self <this binary> --cxrun <cxrun binary>
//             [--smoke] [--corrupt-expected] [--out-dir <dir>]
//             [--commit <id>] [--source-digest <sha256>]
//
// Normally started by perfbench/run.py, which builds it first. Prints a
// metric table and, as the last stdout line, the JSON result; writes the
// full record (environment stamp, notes, failures) and, for a traced
// run, the span log under --out-dir. Exits nonzero with a one-line
// diagnostic when an operation fails its output check, on a sanitizer
// build, or when the workload would start more threads than nproc.

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

const char* kUsage =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1> --self <exe> --cxrun <exe> [--smoke] "
    "[--corrupt-expected] [--out-dir <dir>] [--commit <id>] "
    "[--source-digest <hex>]";

/// Sanitizers compiled into this build ("" when none).
std::string sanitizers() {
  std::string out;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  std::size_t pos = 0;
  while ((pos = flags.find("-fsanitize=", pos)) != std::string::npos) {
    const std::size_t end = flags.find(' ', pos);
    if (!out.empty()) out += ' ';
    out += flags.substr(pos, end - pos);
    pos = end == std::string::npos ? flags.size() : end;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (out.empty()) out = "compiler-reported sanitizer";
#endif
  return out;
}

bool parse(int argc, char** argv, pb::Opts& o, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string& dst) {
      if (i + 1 >= argc) {
        err = a + " needs a value";
        return false;
      }
      dst = argv[++i];
      return true;
    };
    std::string v;
    try {
      if (a == "--workload") {
        if (!value(o.workload)) return false;
      } else if (a == "--seed") {
        if (!value(v)) return false;
        std::size_t used = 0;
        o.seed = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
      } else if (a == "--seconds") {
        if (!value(v)) return false;
        std::size_t used = 0;
        o.seconds = std::stod(v, &used);
        if (used != v.size() || !(o.seconds > 0)) {
          throw std::invalid_argument(v);
        }
      } else if (a == "--trace") {
        if (!value(v)) return false;
        if (v != "0" && v != "1") throw std::invalid_argument(v);
        o.trace = v == "1";
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--corrupt-expected") {
        o.corrupt_expected = true;
      } else if (a == "--self") {
        if (!value(o.self_exe)) return false;
      } else if (a == "--cxrun") {
        if (!value(o.cxrun_exe)) return false;
      } else if (a == "--out-dir") {
        if (!value(o.out_dir)) return false;
      } else if (a == "--commit") {
        if (!value(o.commit)) return false;
      } else if (a == "--source-digest") {
        if (!value(o.source_digest)) return false;
      } else {
        err = "unknown argument '" + a + "'";
        return false;
      }
    } catch (const std::exception&) {
      err = "bad value '" + v + "' for " + a;
      return false;
    }
  }
  if (o.workload.empty() || o.self_exe.empty() || o.cxrun_exe.empty()) {
    err = "--workload, --self and --cxrun are required";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--rank-job") == 0) {
    return pb::rank_main(argc - 2, argv + 2);
  }
  pb::Opts o;
  std::string err;
  if (!parse(argc, argv, o, err)) {
    std::fprintf(stderr, "perfbench: %s\n%s\n", err.c_str(), kUsage);
    return 2;
  }
  const pb::WorkloadInfo* wl = nullptr;
  for (const auto& w : pb::workloads()) {
    if (o.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  const std::string san = sanitizers();
  if (!san.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a sanitizer build (%s)\n",
                 san.c_str());
    return 2;
  }
  if (wl->threads > pb::nproc()) {
    std::fprintf(stderr,
                 "perfbench: workload %s starts %d program threads but "
                 "nproc is %d; refusing to oversubscribe\n",
                 wl->name, wl->threads, pb::nproc());
    return 2;
  }

  pb::Report rep;
  rep.info("workload", o.workload);
  rep.info("seed", static_cast<double>(o.seed));
  rep.info("seconds", o.seconds);
  rep.info("smoke", o.smoke ? "yes" : "no");
  rep.info("nproc", pb::nproc());
  rep.info("program_threads", wl->threads);
  rep.info("compiler", PERFBENCH_COMPILER);
  rep.info("build_type", PERFBENCH_BUILD_TYPE);
  rep.info("cxx_flags", PERFBENCH_CXX_FLAGS);
  rep.info("sanitizers", "none");
  rep.info("git_commit", o.commit);
  rep.info("source_sha256", o.source_digest);
  rep.info("checksum_rel_tol", pb::kChecksumRelTol);
  rep.info("cross_backend_rel_tol", pb::kCrossBackendRelTol);
  const pb::CpuTimes cpu0 = pb::cpu_times();
  try {
    if (o.trace) {
      pb::measure_layers(o, rep);
    } else {
      pb::measure_workload(o, rep);
    }
    rep.info("host_steal_share", pb::steal_share(cpu0, pb::cpu_times()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  ::mkdir(o.out_dir.c_str(), 0755);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0");
  if (!rep.write_record(stem + ".json", o.trace)) {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  }
  if (o.trace && !pb::spans().write_json(stem + "-spans.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s-spans.json\n",
                 stem.c_str());
  }
  if (o.trace) {
    std::printf("span self times (name, count, total s, self s):\n");
    for (const auto& s : pb::spans().summarize()) {
      std::printf("  %-36s %6zu %12.6f %12.6f\n", s.name.c_str(), s.count,
                  s.total_s, s.self_s);
    }
  }
  rep.print(o.trace);
  if (rep.failed() > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu of %llu operations failed their output "
                 "check; first: %s\n",
                 static_cast<unsigned long long>(rep.failed()),
                 static_cast<unsigned long long>(rep.attempted()),
                 rep.first_error().c_str());
    return 1;
  }
  return 0;
}
