// Rank side of the cxrun jobs. cxrun starts this binary twice with
// --rank-job; cxm::make_machine sees the CXRUN_* environment and joins
// the two processes into one SocketMachine job. Each rank prints one
// "PBR key=value ..." line on stdout for the benchmark process to parse.
//
//   --rank-job stencil <bx,by,bz,nx,ny,nz> <iters> <traced 0|1>
//   --rank-job netladder <smoke 0|1>

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "apps/stencil/stencil_cx.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

long rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double get(const RankLine& l, const char* key) {
  const auto it = l.find(key);
  return it == l.end() ? 0.0 : it->second;
}

int stencil_job(const std::string& geo, int iters, bool traced) {
  stencil::Params p;
  auto& g = p.geo;
  if (std::sscanf(geo.c_str(), "%d,%d,%d,%d,%d,%d", &g.bx, &g.by, &g.bz,
                  &g.nx, &g.ny, &g.nz) != 6 ||
      iters < 1) {
    std::fprintf(stderr, "perfbench rank: bad stencil job '%s' %d\n",
                 geo.c_str(), iters);
    return 2;
  }
  p.iterations = iters;
  enable_trace(traced);
  const double t0 = now_s();
  const stencil::Result r = stencil::run_cx(p, cxm::MachineConfig{});
  const double call = now_s() - t0;
  std::printf("PBR rank=%d elapsed=%.17g call=%.17g checksum=%.17g "
              "rss_kb=%ld %s\n",
              cxm::launched_rank(), r.elapsed, call, r.checksum, rss_kb(),
              counters_kv(traced).c_str());
  return 0;
}

int netladder_job(bool smoke) {
  const double t0 = now_s();
  const auto m = cxm::make_machine(cxm::MachineConfig{});
  const double wireup = now_s() - t0;
  const Ladder l = machine_ladder(*m, smoke);
  std::ostringstream os;
  os.precision(17);
  os << "PBR rank=" << m->my_rank() << " rss_kb=" << rss_kb();
  if (m->my_rank() == 0) {
    os << " wireup_ms=" << wireup * 1e3 << " stream_MBps=" << l.stream_MBps;
    for (std::size_t i = 0; i < l.oneway_us.size(); ++i) {
      os << " oneway_us_" << kLadderBytes[i] << '=' << l.oneway_us[i];
    }
  }
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace

std::string counters_kv(bool traced) {
  const auto w = cx::trace::wire_stats();
  const auto wh = cx::trace::when_stats();
  std::ostringstream os;
  os << "w_envelopes=" << w.envelopes << " w_bytes=" << w.bytes_packed
     << " w_sbo=" << w.sbo_payloads << " w_buf_allocs=" << w.buf_allocs
     << " w_buf_hits=" << w.buf_hits << " w_msg_allocs=" << w.msg_allocs
     << " w_msg_hits=" << w.msg_hits << " w_env_allocs=" << w.env_allocs
     << " w_env_hits=" << w.env_hits << " w_transport=" << w.transport_msgs
     << " when_tests=" << wh.tests << " when_hits=" << wh.hits
     << " when_buffered=" << wh.buffered << " when_skipped=" << wh.skipped;
  if (traced) {
    const auto a = cx::trace::aggregate();
    os.precision(17);
    os << " t_entry_time=" << a.entry_time << " t_idle_time=" << a.idle_time
       << " t_idle_spans=" << a.idle_spans << " t_msgs_sent=" << a.msgs_sent
       << " t_msgs_recv=" << a.msgs_recv
       << " t_bytes_sent=" << a.bytes_sent << " t_ft_acks=" << a.ft_acks
       << " t_ft_retransmits=" << a.ft_retransmits;
  }
  return os.str();
}

void counters_from(const RankLine& l, cx::trace::WireStats& w,
                   cx::trace::WhenEngineStats& wh, cx::trace::Counters& a) {
  auto u = [&](const char* k) { return static_cast<std::uint64_t>(get(l, k)); };
  w.envelopes = u("w_envelopes");
  w.bytes_packed = u("w_bytes");
  w.sbo_payloads = u("w_sbo");
  w.buf_allocs = u("w_buf_allocs");
  w.buf_hits = u("w_buf_hits");
  w.msg_allocs = u("w_msg_allocs");
  w.msg_hits = u("w_msg_hits");
  w.env_allocs = u("w_env_allocs");
  w.env_hits = u("w_env_hits");
  w.transport_msgs = u("w_transport");
  wh.tests = u("when_tests");
  wh.hits = u("when_hits");
  wh.buffered = u("when_buffered");
  wh.skipped = u("when_skipped");
  a.entry_time = get(l, "t_entry_time");
  a.idle_time = get(l, "t_idle_time");
  a.idle_spans = u("t_idle_spans");
  a.msgs_sent = u("t_msgs_sent");
  a.msgs_recv = u("t_msgs_recv");
  a.bytes_sent = u("t_bytes_sent");
  a.ft_acks = u("t_ft_acks");
  a.ft_retransmits = u("t_ft_retransmits");
}

int rank_main(int argc, char** argv) {
  const std::string job = argc > 0 ? argv[0] : "";
  try {
    if (job == "stencil" && argc == 4) {
      return stencil_job(argv[1], std::atoi(argv[2]),
                         std::string(argv[3]) == "1");
    }
    if (job == "netladder" && argc == 2) {
      return netladder_job(std::string(argv[1]) == "1");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench rank: %s job failed: %s\n", job.c_str(),
                 e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench rank: unknown job '%s'\n", job.c_str());
  return 2;
}

}  // namespace pb
