#include "machine/machine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "machine/host_machine.hpp"
#include "machine/sim_machine.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "wire/envelope.hpp"

namespace cxm {

Machine::Machine(const MachineConfig& cfg, int rank, int nranks, int ppn)
    : rank_(rank),
      nranks_(nranks),
      ppn_(ppn),
      num_pes_(nranks * ppn),
      pe_base_(rank * ppn),
      ft_(cfg.faults),
      health_(static_cast<std::size_t>(std::max(num_pes_, 0))) {
  if (ppn < 1) throw std::invalid_argument("num_pes must be >= 1");
  if (nranks < 1 || rank < 0 || rank >= nranks) {
    throw std::invalid_argument("machine: bad geometry (rank " +
                                std::to_string(rank) + " of " +
                                std::to_string(nranks) + ")");
  }
  ft_enabled_ = ft_.enabled();
  if (ft_enabled_) inj_ = std::make_unique<cx::ft::FaultInjector>(ft_);
  agg_on_ = cx::wire::agg_enabled();
  if (agg_on_) {
    agg_cfg_ = cx::wire::agg_config();
    aggs_.resize(static_cast<std::size_t>(ppn_));
  }
}

std::uint32_t Machine::register_handler(Handler h) {
  if (running_) throw std::logic_error("register_handler after run()");
  handlers_.push_back(std::move(h));
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

// ---------------------------------------------------------------------------
// The receive path

bool Machine::receive(int pe, MessagePtr msg, FtWindows* ft,
                      double per_record) {
  if (ft != nullptr && msg->ft_flags != 0) {
    if (msg->ft_flags & kFtAck) {
      ft->sw.acked(msg->src_pe, msg->ft_seq);
      return true;
    }
    if (msg->ft_flags & kFtReliable) {
      // Always ack — even duplicates, since the original ack may have
      // been lost on the wire.
      auto ack = std::make_unique<Message>();
      ack->dst_pe = msg->src_pe;
      ack->ft_seq = msg->ft_seq;
      ack->ft_peer = pe;
      ack->ft_flags = kFtAck;
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtAck,
                     static_cast<std::uint64_t>(msg->src_pe), msg->ft_seq);
      send(std::move(ack));
      if (!ft->rw.first_delivery(msg->src_pe, msg->ft_seq)) {
        CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop,
                       kDropDuplicate, msg->ft_seq);
        return false;
      }
    }
  }
  if (agg_on_ && (msg->wire_flags & kWireAggBatch) != 0) {
    // Unpack the batch into the normal delivery path, in append order.
    const auto src64 =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(msg->src_pe));
    const bool ok = cx::wire::for_each_agg_record(
        msg->data, [&](std::uint32_t h, const std::byte* p, std::uint32_t len) {
          if (per_record != 0.0) charge(per_record);
          if (h >= handlers_.size()) {
            CX_LOG_ERROR("dropping batched message with unknown handler ", h);
            return;
          }
          auto sub = std::make_unique<Message>();
          sub->handler = h;
          sub->src_pe = msg->src_pe;
          sub->dst_pe = pe;
          sub->data.assign(p, len);
          CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::MsgRecv, src64, len);
          handlers_[h](std::move(sub));
        });
    if (!ok) CX_LOG_ERROR("dropping malformed aggregation batch");
    return true;
  }
  const std::uint32_t h = msg->handler;
  if (h >= handlers_.size()) {
    CX_LOG_ERROR("dropping message with unknown handler ", h);
    return false;
  }
  CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::MsgRecv,
                 static_cast<std::uint32_t>(msg->src_pe), msg->wire_size());
  handlers_[h](std::move(msg));
  return true;
}

std::uint64_t Machine::enroll_reliable(FtWindows& w, Message& msg,
                                       double deadline) {
  const int dst = msg.dst_pe;
  const std::uint64_t seq = w.sw.allocate(dst);
  msg.ft_seq = seq;
  msg.ft_flags = kFtReliable;
  cx::ft::PendingSend p;
  p.handler = msg.handler;
  p.dst_pe = dst;
  p.data = msg.data;
  p.size_override = msg.size_override;
  p.seq = seq;
  p.wire_flags = msg.wire_flags;  // a resent batch is still a batch
  p.deadline = deadline;
  w.sw.pending.emplace(std::make_pair(dst, seq), std::move(p));
  return seq;
}

MessagePtr Machine::retransmit_copy(const cx::ft::PendingSend& p) {
  auto copy = cx::wire::clone_payload(p.handler, p.dst_pe, p.data);
  copy->size_override = p.size_override;
  copy->ft_seq = p.seq;
  copy->ft_flags = kFtReliable | kFtRetransmit;
  copy->wire_flags = p.wire_flags;
  return copy;
}

cx::wire::PeAggregator& Machine::agg(int pe) {
  auto& a = aggs_[lidx(pe)];
  if (!a) a = std::make_unique<cx::wire::PeAggregator>(agg_cfg_);
  return *a;
}

bool Machine::agg_pending(int pe) const noexcept {
  const auto& a = aggs_[lidx(pe)];
  return a != nullptr && a->has_pending();
}

// ---------------------------------------------------------------------------
// The failure record

bool Machine::pe_failed(int pe) const noexcept {
  if (pe < 0 || pe >= num_pes_) return false;
  const PeHealth& h = health_[static_cast<std::size_t>(pe)];
  return h.crashed.load(std::memory_order_relaxed) ||
         h.unreachable.load(std::memory_order_relaxed) ||
         h.hung.load(std::memory_order_relaxed);
}

bool Machine::mark_crashed(int pe) {
  any_failed_.store(true, std::memory_order_release);
  return !health_[static_cast<std::size_t>(pe)].crashed.exchange(
      true, std::memory_order_relaxed);
}

bool Machine::mark_hung(int pe) {
  any_failed_.store(true, std::memory_order_release);
  return !health_[static_cast<std::size_t>(pe)].hung.exchange(
      true, std::memory_order_relaxed);
}

void Machine::mark_unreachable(int pe) {
  any_failed_.store(true, std::memory_order_release);
  health_[static_cast<std::size_t>(pe)].unreachable.store(
      true, std::memory_order_relaxed);
}

void Machine::mark_declared(int pe, cx::ft::FailureKind kind) {
  any_failed_.store(true, std::memory_order_release);
  PeHealth& h = health_[static_cast<std::size_t>(pe)];
  if (kind == cx::ft::FailureKind::Crashed) {
    h.crashed.store(true, std::memory_order_relaxed);
  } else if (!h.hung.load(std::memory_order_relaxed)) {
    // Declared dead on external evidence (heartbeat silence) without a
    // local hang flag: mark unreachable so all traffic to it stops.
    h.unreachable.store(true, std::memory_order_relaxed);
  }
}

void Machine::clear_failure(int pe) {
  PeHealth& h = health_[static_cast<std::size_t>(pe)];
  h.crashed.store(false, std::memory_order_relaxed);
  h.unreachable.store(false, std::memory_order_relaxed);
  h.hung.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(notify_mutex_);
  h.notified = false;
}

void Machine::notify_failure_once(int pe, cx::ft::FailureKind kind, double t,
                                  int trace_pe) {
  {
    std::lock_guard<std::mutex> lk(notify_mutex_);
    PeHealth& h = health_[static_cast<std::size_t>(pe)];
    if (h.notified) return;
    h.notified = true;
  }
  CX_TRACE_EVENT(trace_pe, t, cx::trace::EventKind::FtFailure,
                 static_cast<std::uint64_t>(pe),
                 static_cast<std::uint64_t>(kind));
  if (failure_listener_) {
    failure_listener_(cx::ft::PeFailure{pe, kind, t});
  }
}

// ---------------------------------------------------------------------------
// Construction

namespace {

long env_long(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    throw std::invalid_argument(std::string("cxrun environment incomplete: ") +
                                name + " is not set");
  }
  char* end = nullptr;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    throw std::invalid_argument(std::string("cxrun environment: bad ") + name +
                                "='" + v + "'");
  }
  return x;
}

}  // namespace

bool socket_env_active() { return std::getenv("CXRUN_RANK") != nullptr; }

int launched_rank() {
  const char* v = std::getenv("CXRUN_RANK");
  return v != nullptr ? static_cast<int>(std::strtol(v, nullptr, 10)) : 0;
}

void apply_socket_env(MachineConfig& cfg) {
  SocketParams p;
  p.rank = static_cast<int>(env_long("CXRUN_RANK"));
  p.nranks = static_cast<int>(env_long("CXRUN_NRANKS"));
  p.ppn = static_cast<int>(env_long("CXRUN_PPN"));
  const char* root = std::getenv("CXRUN_ROOT");
  if (root == nullptr) {
    throw std::invalid_argument("cxrun environment incomplete: CXRUN_ROOT");
  }
  const std::string r = root;
  const auto colon = r.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= r.size()) {
    throw std::invalid_argument("CXRUN_ROOT must be host:port, got '" + r +
                                "'");
  }
  p.root_host = r.substr(0, colon);
  p.root_port = static_cast<std::uint16_t>(std::stoi(r.substr(colon + 1)));
  if (p.rank < 0 || p.nranks < 1 || p.rank >= p.nranks || p.ppn < 1) {
    throw std::invalid_argument("cxrun environment: bad geometry (rank " +
                                std::to_string(p.rank) + " of " +
                                std::to_string(p.nranks) + ", ppn " +
                                std::to_string(p.ppn) + ")");
  }
  cfg.socket = p;
  cfg.backend = Backend::Socket;
}

std::unique_ptr<Machine> make_machine(const MachineConfig& cfg) {
  MachineConfig effective = cfg;
  // Under cxrun, a default (Threaded) request joins the socket job so
  // unmodified examples work; explicit Sim runs stay simulated.
  if (effective.backend == Backend::Threaded && socket_env_active()) {
    apply_socket_env(effective);
  }
  switch (effective.backend) {
    case Backend::Threaded:
      // The one-rank host job: every PE in this process, no sockets.
      effective.socket = SocketParams{};
      effective.socket.ppn = effective.num_pes;
      return std::make_unique<HostMachine>(effective);
    case Backend::Sim:
      return std::make_unique<SimMachine>(effective);
    case Backend::Socket:
      if (effective.socket.root_port == 0) {
        apply_socket_env(effective);  // Socket requested directly: need env
      }
      return std::make_unique<HostMachine>(effective);
  }
  return nullptr;
}

}  // namespace cxm
