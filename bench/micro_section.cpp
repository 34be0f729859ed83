// Section-multicast microbenchmark: DES A/B of delivering R rounds to a
// 16-member subset of a 64-element array on 64 PEs.
//
//   A ("section"):   SectionProxy::broadcast_done — the multicast rides
//                    a k-ary spanning tree over only the PEs hosting
//                    members, and completion needs one credit per
//                    member.
//   B ("broadcast"): CollectionProxy::broadcast_done + an index filter
//                    in the entry method — every PE gets an envelope
//                    and every element sends a completion credit, even
//                    the 48 that ignore the message.
//
// Both modes must produce byte-identical per-element state digests
// (delivery exactly once per member per round, in round order); the
// section path must cost >=2x fewer wire envelopes (~3.9x expected:
// ~33 vs ~128 per round). The process exits nonzero if either gate
// fails, so CI can run it directly.
//
//   ./bench/micro_section [--pes 64] [--elements 64] [--stride 4]
//                         [--rounds 32] [--section-tree-arity 4]
//                         [--json [BENCH_section.json]]

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/charm.hpp"
#include "core/spantree.hpp"
#include "trace/trace.hpp"
#include "util/main_guard.hpp"

namespace {

struct BCell : cx::Chare {
  std::uint64_t state = 0;

  void pup(pup::Er& p) override { p | state; }

  // Order-sensitive state fold: a missed, duplicated, or reordered
  // delivery changes the digest.
  void hit(int round) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL +
            static_cast<std::uint64_t>(round);
  }
  void hit_if(int stride, int round) {
    if (this_index()[0] % stride == 0) hit(round);
  }
  std::uint64_t get_state() { return state; }
};

struct ModeResult {
  std::uint64_t envelopes = 0;  ///< wire envelopes across the timed rounds
  std::uint64_t digest = 0;     ///< FNV-1a over all element states
  double makespan = 0.0;        ///< virtual seconds (whole run)
};

ModeResult run_mode(bool section_mode, int pes, int elements, int stride,
                    int rounds) {
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = pes;
  cfg.machine.backend = cxm::Backend::Sim;
  cx::Runtime rt(cfg);
  ModeResult res;
  rt.run([&] {
    auto arr = cx::create_array<BCell>({elements});
    std::vector<cx::Index> members;
    for (int i = 0; i < elements; i += stride) members.push_back(cx::Index(i));
    auto s = arr.section(members);
    // Warm-up round (same op as the timed loop, so the digests stay
    // comparable across modes): settles creation, the section build,
    // and any location traffic outside the measurement window.
    if (section_mode) {
      s.broadcast_done<&BCell::hit>(0).get();
    } else {
      arr.broadcast_done<&BCell::hit_if>(stride, 0).get();
    }
    const std::uint64_t before = cx::trace::wire_stats().envelopes;
    for (int r = 1; r <= rounds; ++r) {
      if (section_mode) {
        s.broadcast_done<&BCell::hit>(r).get();
      } else {
        arr.broadcast_done<&BCell::hit_if>(stride, r).get();
      }
    }
    res.envelopes = cx::trace::wire_stats().envelopes - before;
    std::uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < elements; ++i) {
      const std::uint64_t v = arr[i].call<&BCell::get_state>().get();
      h = (h ^ v) * 1099511628211ULL;
    }
    res.digest = h;
    cx::exit();
  });
  res.makespan = rt.sim_makespan();
  return res;
}

}  // namespace

int run_main(int argc, char** argv) {
  cxu::Options opt(argc, argv);
  const int pes = static_cast<int>(opt.get_int("pes", 64));
  const int elements = static_cast<int>(opt.get_int("elements", 64));
  const int stride = static_cast<int>(opt.get_int("stride", 4));
  const int rounds = static_cast<int>(opt.get_int("rounds", 32));
  cx::tree::set_section_arity(
      static_cast<int>(opt.get_int("section-tree-arity", 4)));
  const int members = (elements + stride - 1) / stride;

  const ModeResult sect = run_mode(true, pes, elements, stride, rounds);
  const ModeResult bcast = run_mode(false, pes, elements, stride, rounds);

  const double ratio =
      sect.envelopes > 0
          ? static_cast<double>(bcast.envelopes) /
                static_cast<double>(sect.envelopes)
          : 0.0;
  const bool identical = sect.digest == bcast.digest && sect.digest != 0;

  std::printf("micro_section: %d-member section of %d elements on %d PEs, "
              "%d rounds\n\n", members, elements, pes, rounds);
  cxu::Table table({"mode", "envelopes", "per round", "virtual s"});
  table.add_row({"section multicast", std::to_string(sect.envelopes),
                 cxu::Table::num(static_cast<double>(sect.envelopes) / rounds, 1),
                 cxu::Table::num(sect.makespan, 6)});
  table.add_row({"broadcast+filter", std::to_string(bcast.envelopes),
                 cxu::Table::num(static_cast<double>(bcast.envelopes) / rounds, 1),
                 cxu::Table::num(bcast.makespan, 6)});
  table.print();
  std::printf("\nenvelope ratio %.2fx, digests %s\n", ratio,
              identical ? "identical" : "DIFFER");

  if (opt.has("json")) {
    std::string path = opt.get_string("json", "");
    if (path.empty()) path = "BENCH_section.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"pes\":%d,\"elements\":%d,\"members\":%d,\"rounds\":%d,\n"
        " \"section\":{\"envelopes\":%" PRIu64 ",\"makespan_s\":%.9f},\n"
        " \"broadcast\":{\"envelopes\":%" PRIu64 ",\"makespan_s\":%.9f},\n"
        " \"envelope_ratio\":%.4f,\"identical\":%s}\n",
        pes, elements, members, rounds, sect.envelopes, sect.makespan,
        bcast.envelopes, bcast.makespan, ratio, identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

  if (!identical) {
    std::fprintf(stderr, "micro_section: FAILED — modes diverged\n");
    return 1;
  }
  if (ratio < 2.0) {
    std::fprintf(stderr,
                 "micro_section: FAILED — envelope ratio %.2fx < 2x\n",
                 ratio);
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return cxu::guarded_main(argc, argv, run_main);
}
