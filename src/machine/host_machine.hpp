#pragma once
// HostMachine — the real-time engine: one OS thread per PE, a per-PE
// MPSC mailbox, wall clock. Serves both host backends:
//
//   * Threaded — one process, rank 0 of 1 with ppn = num_pes. Only the
//     PE threads run: no comm thread, no wake pipe, no epoll fd, no
//     sockets.
//
//   * Socket — N OS processes (ranks) bridged by nonblocking TCP. Each
//     rank hosts `ppn` PEs (global PE p lives on rank p/ppn) plus one
//     comm thread running an epoll loop over one connection per peer
//     rank. PEs of one rank still talk through the mailboxes, including
//     the by-reference `local` payload path, which never crosses a
//     socket. Cross-rank messages are the cx::wire envelope verbatim
//     behind a u32 length prefix (src/net/frame.hpp); connections open
//     with a version/endianness/ABI handshake so a mismatched peer is
//     rejected with a clear error instead of silently corrupting
//     native-endian payloads.
//
// Wireup (nranks > 1): the launcher (cxrun, or a test harness) listens
// as the rendezvous root; every rank connects, sends its handshake +
// data port, and receives the rank->endpoint table, then the ranks build
// a full mesh (connect to lower ranks, accept from higher ones). A
// one-rank cxrun job only checks in with the root.
//
// Fault tolerance (cx::ft): with MachineConfig::faults enabled, cross-PE
// sends pass through a seeded injector (drop/duplicate/delay) and the
// seq+ack reliable-delivery protocol (the ft header rides in the frame
// across ranks). Sender-side windows and receiver dedup state are owned
// by each PE's thread (sends run on the sender's thread; acks are routed
// back to the sender's mailbox), so the protocol needs no extra locks —
// only the shared injector takes a mutex, and only when ft is on.
// Retransmit deadlines and delayed deliveries bound the mailbox cv wait.
// An injected extra delay is only honored for same-rank destinations
// (TCP supplies real latency, and delaying inside the comm thread would
// stall unrelated traffic). Scripted crash/hang at a virtual time is a
// SimMachine feature; here PEs die via inject_kill (a crashed PE keeps
// draining its mailbox but discards — and never acks — everything).
// Kill/hang/revive broadcast a control frame so every rank's view
// converges, and a broken or EOF'd connection marks every PE of that
// rank crashed through the same failure listener heartbeat detection
// uses — so a kill -9'd worker process is detected without new protocol.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine.hpp"
#include "net/frame.hpp"
#include "net/socket_util.hpp"

namespace cxm {

class HostMachine final : public Machine {
 public:
  explicit HostMachine(const MachineConfig& cfg);
  ~HostMachine() override;

  [[nodiscard]] int current_pe() const noexcept override;
  void send(MessagePtr msg) override;
  [[nodiscard]] double now() const override;
  void compute(double seconds) override;
  void charge(double) override {}  // real work already took real time
  void run() override;
  void stop() override { request_stop(true); }
  [[nodiscard]] bool is_simulated() const noexcept override { return false; }

  void send_after(MessagePtr msg, double delay_s) override;
  void inject_kill(int pe) override;
  void inject_hang(int pe) override;
  void declare_failed(int pe, cx::ft::FailureKind kind) override;
  void revive_pe(int pe) override;

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<MessagePtr> queue;
    /// Deferred deliveries (send_after, injected delays), keyed by the
    /// absolute machine-time deadline; promoted into `queue` when due.
    std::multimap<double, MessagePtr> delayed;
  };

  /// One peer rank's connection. `outq`/`down` are guarded by
  /// out_mutex_ (producers are PE threads, consumer is the comm
  /// thread); everything else is comm-thread-only.
  struct Peer {
    cxnet::Fd fd;
    cxnet::FrameReader reader;
    std::deque<std::vector<std::byte>> outq;
    std::size_t out_off = 0;  ///< bytes of outq.front() already written
    bool want_write = false;  ///< EPOLLOUT currently armed
    bool down = false;
  };

  void pe_loop(int pe);
  void enqueue(int dst, MessagePtr msg);
  void enqueue_delayed(int dst, MessagePtr msg, double deadline);
  /// Rouse hosted PE `pe`'s scheduler so it re-reads its failure flags.
  void wake(int pe);
  void deliver(MessagePtr msg);
  void retransmit_due(int pe, FtWindows& me);
  void request_stop(bool broadcast);
  void apply_kill(int pe);
  void apply_hang(int pe);
  void apply_revive(int pe);
  /// Hand every sealed aggregation batch of `pe` to send().
  void drain_agg(int pe);

  // ---- comm thread (nranks > 1 only) -------------------------------------
  void comm_loop();
  void ship(int rank, std::vector<std::byte> frame);
  void wake_comm();
  void broadcast_control(cxnet::ControlOp op, int pe);
  /// Write as much of `p`'s outq as the socket accepts; arms/disarms
  /// EPOLLOUT. Comm thread only. Returns false if the peer broke.
  bool flush_peer(int rank);
  void handle_frame(int rank, const cxnet::Frame& f);
  void peer_down(int rank, const std::string& why);
  [[nodiscard]] bool all_out_drained();

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  ///< hosted PEs
  std::atomic<bool> stop_{false};
  double epoch_ = 0.0;

  std::mutex inj_mutex_;  ///< injector draws come from many PE threads
  std::vector<std::unique_ptr<FtWindows>> ft_pes_;  ///< hosted PEs, ft on

  std::vector<Peer> peers_;  ///< indexed by rank; self entry unused
  std::mutex out_mutex_;
  int epoll_fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;  ///< self-pipe to rouse the comm thread
  std::thread comm_thread_;
  std::atomic<bool> comm_stop_{false};
};

}  // namespace cxm
