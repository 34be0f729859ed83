#pragma once
// Machine — the execution substrate under the runtime.
//
// A Machine owns a set of PEs (processing elements), a handler table, and
// the transport between PEs. Two engines exist:
//
//   * HostMachine — one std::thread per PE, real wall clock, per-PE
//     mailboxes. A job is `nranks` OS processes of `ppn` PEs each; the
//     threaded backend is its one-rank case (rank 0 of 1, ppn = num_pes:
//     no comm thread, no sockets). With more ranks, launched by `cxrun`
//     (or any parent that sets the CXRUN_* environment — see
//     socket_env_active()), one epoll comm thread per process carries
//     cross-process messages as length-prefixed cx::wire envelopes
//     (src/net/); PEs of one process still share the mailbox fast path.
//
//   * SimMachine — a deterministic discrete-event simulator: virtual PEs,
//     per-PE virtual clocks and a NetworkModel. Entry methods execute real
//     code; time is charged via compute()/charge-scopes and the network
//     model. This is the BigSim-style backend used to regenerate the
//     paper's supercomputer-scale figures (1k-65k PEs) on a workstation.
//
// Both engines share what this base class holds: the handler table, the
// receive path (ft acks and dedup, aggregation-batch unpack, handler
// dispatch) and the per-PE failure record with its notify-once rule.
//
// The runtime registers handlers once (before run()) and then communicates
// exclusively through send(). All handler execution happens on the
// destination PE's context.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ft/fault.hpp"
#include "ft/reliable.hpp"
#include "machine/message.hpp"
#include "machine/network.hpp"
#include "wire/agg.hpp"

namespace cxm {

using Handler = std::function<void(MessagePtr)>;

/// Backend selection. Threaded and Socket both build a HostMachine
/// (one rank, or the CXRUN_* job geometry); Sim builds a SimMachine.
enum class Backend { Threaded, Sim, Socket };

/// Multi-process launch geometry (Backend::Socket). Filled from the
/// CXRUN_* environment by apply_socket_env(); the launcher (`cxrun`)
/// runs the root rendezvous the ranks wire up through.
struct SocketParams {
  int rank = 0;
  int nranks = 1;
  int ppn = 1;  ///< worker PEs per rank; global PE count = nranks * ppn
  std::string root_host = "127.0.0.1";
  std::uint16_t root_port = 0;
};

struct MachineConfig {
  int num_pes = 4;
  Backend backend = Backend::Threaded;
  /// Socket-backend geometry. Under cxrun the global PE count is
  /// nranks * ppn (num_pes above is ignored — the launcher owns the
  /// job shape).
  SocketParams socket{};
  /// Simulated network (ignored by the host backends):
  std::string network = "simple";  ///< "simple" | "torus" | "dragonfly"
  NetworkParams net{};
  std::uint64_t seed = 1;  ///< tie-break seed (reserved; DES is FIFO-stable)
  /// Fault-tolerance knobs (cx::ft). Defaults are all-off: every
  /// backend keeps the exact pre-ft fast path when faults.enabled()
  /// is false.
  cx::ft::FaultConfig faults{};
};

class Machine {
 public:
  virtual ~Machine() = default;

  /// Register a handler; returns its id. Only valid before run().
  std::uint32_t register_handler(Handler h);

  /// Number of PEs in the whole job.
  [[nodiscard]] int num_pes() const noexcept { return num_pes_; }

  /// PE id of the calling context; -1 if not on a PE (e.g. driver thread).
  [[nodiscard]] virtual int current_pe() const noexcept = 0;

  /// Enqueue a message for delivery to msg->dst_pe. Callable from any PE
  /// context, and from outside run() to seed initial work.
  virtual void send(MessagePtr msg) = 0;

  /// Current time (seconds) on the calling PE: wall time for the host
  /// backends, virtual time for the simulator.
  [[nodiscard]] virtual double now() const = 0;

  /// Charge `seconds` of compute to the calling PE: the simulator advances
  /// its virtual clock; the host backends spin for that long (used for
  /// synthetic load injection, e.g. the paper's imbalance factors).
  virtual void compute(double seconds) = 0;

  /// Advance the calling PE's clock without consuming host CPU. On the
  /// host backends this is a no-op (real work already took real time);
  /// in the simulator it is how measured kernel times are charged.
  virtual void charge(double seconds) = 0;

  /// Run the scheduler loop on all PEs; blocks until stop() is called (or,
  /// for the simulator, until the event queue drains).
  virtual void run() = 0;

  /// Request termination of all PE loops. Callable from handler context.
  virtual void stop() = 0;

  /// True when the machine uses virtual time (SimMachine).
  [[nodiscard]] virtual bool is_simulated() const noexcept = 0;

  // ---- multi-process locality ------------------------------------------
  // Single-process machines host every PE in rank 0 of 1.

  /// This process's rank in the job.
  [[nodiscard]] int my_rank() const noexcept { return rank_; }

  /// Number of OS processes in the job.
  [[nodiscard]] int num_ranks() const noexcept { return nranks_; }

  /// The rank hosting `pe` (block distribution: pe / ppn).
  [[nodiscard]] int pe_to_rank(int pe) const noexcept { return pe / ppn_; }

  /// Whether `pe`'s scheduler thread runs in this process. The runtime
  /// gates per-PE seeding (the Start envelope, heartbeat timers) on
  /// this so each rank only drives its own PEs.
  [[nodiscard]] bool hosts_pe(int pe) const noexcept { return is_local(pe); }

  // ---- fault tolerance (cx::ft) -----------------------------------------

  /// Deliver `msg` to msg->dst_pe after `delay_s` seconds of the calling
  /// PE's clock, without charging network cost. Used for runtime timers
  /// (future timeouts); delivery goes through the normal handler table.
  virtual void send_after(MessagePtr msg, double delay_s) = 0;

  /// Mark `pe` crashed: it stops processing (and acking) everything from
  /// now on. Notifies the failure listener. Callable from handler context.
  virtual void inject_kill(int pe) = 0;

  /// Make `pe` stop draining its mailbox without any notification — the
  /// test/chaos hook for silent failures. Peers only learn of it via
  /// retransmit give-up or the heartbeat detector (declare_failed).
  virtual void inject_hang(int pe) = 0;

  /// Mark `pe` failed as `kind` based on external evidence (the
  /// liveness layer's accrual detector crossing its threshold). Traffic
  /// to the PE stops and the failure listener fires once, exactly as if
  /// the machine had detected the failure itself.
  virtual void declare_failed(int pe, cx::ft::FailureKind kind) = 0;

  /// Undo inject_kill / a scripted crash or hang, as part of restart.
  /// Messages the PE accumulated while down are discarded.
  virtual void revive_pe(int pe) = 0;

  /// True when `pe` is currently marked crashed, hung, or unreachable.
  [[nodiscard]] bool pe_failed(int pe) const noexcept;

  using FailureListener = std::function<void(const cx::ft::PeFailure&)>;

  /// Install the callback invoked (from machine context — scheduler
  /// thread on Sim, a PE or comm thread on the host backends) when a PE
  /// failure is detected: scripted crash, inject_kill, retransmit
  /// give-up, or a lost connection. At most one notification fires per
  /// failed PE until revive_pe() re-arms it.
  void set_failure_listener(FailureListener cb) {
    failure_listener_ = std::move(cb);
  }

 protected:
  /// Geometry: this process is `rank` of `nranks`, hosting `ppn` PEs
  /// (global PEs rank*ppn .. rank*ppn+ppn-1). Also samples the fault and
  /// aggregation configuration every engine reads.
  Machine(const MachineConfig& cfg, int rank, int nranks, int ppn);

  [[nodiscard]] bool is_local(int pe) const noexcept {
    return pe >= pe_base_ && pe < pe_base_ + ppn_;
  }
  /// Index of hosted PE `pe` in per-local-PE tables.
  [[nodiscard]] std::size_t lidx(int pe) const noexcept {
    return static_cast<std::size_t>(pe - pe_base_);
  }

  const int rank_;
  const int nranks_;
  const int ppn_;
  const int num_pes_;  ///< global PE count = nranks * ppn
  const int pe_base_;  ///< first global PE hosted here = rank * ppn
  std::vector<Handler> handlers_;
  bool running_ = false;

  // ---- the receive path -------------------------------------------------

  /// Reliable-delivery state of one PE: its unacked sends and its
  /// receiver-side dedup. Touched only from that PE's context.
  struct FtWindows {
    cx::ft::SenderWindow sw;
    cx::ft::ReceiverWindow rw;
  };

  /// Run a message that reached PE `pe` (the caller made `pe` current
  /// and filtered dead PEs): consume acks, ack and dedup reliable
  /// messages (`ft` is the PE's windows, null with ft off), unpack an
  /// aggregation batch charging `per_record` per record, and dispatch to
  /// the handler. Returns false when the message was dropped as a
  /// duplicate or for an unknown handler.
  bool receive(int pe, MessagePtr msg, FtWindows* ft, double per_record);

  /// Register `msg` (a fresh cross-PE send from the PE owning `w`) for
  /// reliable delivery: stamp the next sequence number toward its
  /// destination and keep a copy due for retransmit at `deadline`.
  /// Returns the sequence number.
  static std::uint64_t enroll_reliable(FtWindows& w, Message& msg,
                                       double deadline);

  /// The wire copy of an unacked message, flagged as a retransmit.
  static MessagePtr retransmit_copy(const cx::ft::PendingSend& p);

  cx::ft::FaultConfig ft_;
  bool ft_enabled_ = false;
  std::unique_ptr<cx::ft::FaultInjector> inj_;  ///< only when ft_enabled_

  // ---- sender-side aggregation (--wire-agg), hosted PEs only ------------
  [[nodiscard]] cx::wire::PeAggregator& agg(int pe);
  [[nodiscard]] bool agg_pending(int pe) const noexcept;

  bool agg_on_ = false;  ///< sampled from cx::wire::agg_enabled() at ctor
  cx::wire::AggConfig agg_cfg_;
  std::vector<std::unique_ptr<cx::wire::PeAggregator>> aggs_;

  // ---- the failure record -----------------------------------------------
  // One entry per global PE: remote failures stop local traffic exactly
  // like local ones. Always allocated — inject_kill() must work without
  // any --ft-* config (the pool kills a worker directly).

  [[nodiscard]] bool crashed(int pe) const noexcept {
    return health_[static_cast<std::size_t>(pe)].crashed.load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] bool hung(int pe) const noexcept {
    return health_[static_cast<std::size_t>(pe)].hung.load(
        std::memory_order_relaxed);
  }
  /// Crashed or unreachable: traffic to the PE stops.
  [[nodiscard]] bool dead(int pe) const noexcept {
    const PeHealth& h = health_[static_cast<std::size_t>(pe)];
    return h.crashed.load(std::memory_order_relaxed) ||
           h.unreachable.load(std::memory_order_relaxed);
  }
  /// Raise a flag; true when it was newly raised. Each sets any_failed_.
  bool mark_crashed(int pe);
  bool mark_hung(int pe);
  void mark_unreachable(int pe);
  /// declare_failed's rule: Crashed marks crashed; otherwise the PE is
  /// unreachable unless a hang flag already explains it.
  void mark_declared(int pe, cx::ft::FailureKind kind);
  /// Clear every flag of `pe` and re-arm its notification.
  void clear_failure(int pe);
  /// Fire the failure listener for `pe` unless it already fired since
  /// the last revive. `t` is the detection time, `trace_pe` the ring the
  /// FtFailure event goes to.
  void notify_failure_once(int pe, cx::ft::FailureKind kind, double t,
                           int trace_pe);

  /// A PE failed at some point: the schedulers check liveness flags
  /// only once this is set, keeping the fault-free path flag-free.
  std::atomic<bool> any_failed_{false};

 private:
  struct PeHealth {
    std::atomic<bool> crashed{false};
    std::atomic<bool> hung{false};
    std::atomic<bool> unreachable{false};
    bool notified = false;  ///< guarded by notify_mutex_
  };
  std::vector<PeHealth> health_;
  std::mutex notify_mutex_;
  FailureListener failure_listener_;
};

// FtDrop trace reasons (slot a), shared by every engine's trace stream.
inline constexpr std::uint64_t kDropInjected = 0;
inline constexpr std::uint64_t kDropDuplicate = 1;
inline constexpr std::uint64_t kDropDeadDst = 2;

/// Create a machine from a config. When the CXRUN_* environment is set
/// (the process was launched by cxrun) a Threaded request is upgraded
/// to the Socket backend — Sim runs are never upgraded.
std::unique_ptr<Machine> make_machine(const MachineConfig& cfg);

/// True when this process was launched by cxrun (CXRUN_RANK et al. are
/// set) and should join a multi-process socket job.
bool socket_env_active();

/// Fill cfg.socket from the CXRUN_* environment and select
/// Backend::Socket. Throws if the environment is malformed.
void apply_socket_env(MachineConfig& cfg);

/// The rank cxrun assigned this process, or 0 when not under cxrun.
/// Usable before any Machine exists — examples gate their result
/// printing on it.
int launched_rank();

}  // namespace cxm
