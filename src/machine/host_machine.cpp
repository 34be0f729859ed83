#include "machine/host_machine.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/wireup.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace cxm {

namespace {
thread_local int t_current_pe = -1;

constexpr std::size_t kReadChunk = 64 * 1024;
/// How long the comm thread keeps flushing after the PE loops exit —
/// long enough for the Stop broadcast and tail acks to reach peers.
constexpr double kDrainGrace = 3.0;
}  // namespace

HostMachine::HostMachine(const MachineConfig& cfg)
    : Machine(cfg, cfg.socket.rank, cfg.socket.nranks, cfg.socket.ppn) {
  mailboxes_.reserve(static_cast<std::size_t>(ppn_));
  for (int i = 0; i < ppn_; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  if (ft_enabled_) {
    ft_pes_.reserve(static_cast<std::size_t>(ppn_));
    for (int i = 0; i < ppn_; ++i) {
      ft_pes_.push_back(std::make_unique<FtWindows>());
    }
  }

  // ---- wireup: rendezvous with the root, then the rank mesh -------------
  cxnet::Handshake hs;
  hs.rank = static_cast<std::uint32_t>(rank_);
  hs.nranks = static_cast<std::uint32_t>(nranks_);
  hs.ppn = static_cast<std::uint32_t>(ppn_);
  if (nranks_ == 1) {
    if (cfg.socket.root_port != 0) {
      // One-rank cxrun job: still check in with the root so cxrun -np 1
      // gets its rendezvous accounting (and handshake validation).
      cxnet::Fd listener = cxnet::tcp_listen(0);
      (void)cxnet::client_rendezvous(cfg.socket.root_host,
                                     cfg.socket.root_port, hs,
                                     cxnet::local_port(listener.get()));
    }
    return;
  }
  peers_.resize(static_cast<std::size_t>(nranks_));
  cxnet::Fd listener = cxnet::tcp_listen(0);
  const std::uint16_t data_port = cxnet::local_port(listener.get());
  const std::vector<cxnet::Endpoint> table = cxnet::client_rendezvous(
      cfg.socket.root_host, cfg.socket.root_port, hs, data_port);
  std::vector<cxnet::Fd> fds = cxnet::mesh_wireup(hs, listener.get(), table);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error("HostMachine: pipe() failed");
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  cxnet::set_nonblocking(wake_r_);
  cxnet::set_nonblocking(wake_w_);
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("HostMachine: epoll_create1 failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_r_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_r_, &ev);
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    Peer& p = peers_[static_cast<std::size_t>(r)];
    p.fd = std::move(fds[static_cast<std::size_t>(r)]);
    cxnet::set_nonblocking(p.fd.get());
    ev.events = EPOLLIN;
    ev.data.fd = p.fd.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ev.data.fd, &ev);
  }
}

HostMachine::~HostMachine() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

int HostMachine::current_pe() const noexcept { return t_current_pe; }

double HostMachine::now() const { return cxu::wall_time() - epoch_; }

void HostMachine::compute(double seconds) {
  const double end = cxu::wall_time() + seconds;
  while (cxu::wall_time() < end) {
    // busy spin: models synthetic compute load on a real core
  }
}

void HostMachine::enqueue(int dst, MessagePtr msg) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.push_back(std::move(msg));
  }
  mb.cv.notify_one();
}

void HostMachine::enqueue_delayed(int dst, MessagePtr msg, double deadline) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.delayed.emplace(deadline, std::move(msg));
  }
  mb.cv.notify_one();  // the PE re-bounds its wait by the new deadline
}

void HostMachine::wake(int pe) {
  if (!is_local(pe)) return;
  Mailbox& mb = *mailboxes_[lidx(pe)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
  }
  mb.cv.notify_all();
}

void HostMachine::drain_agg(int pe) {
  auto& a = agg(pe);
  while (MessagePtr batch = a.next_ready()) send(std::move(batch));
}

void HostMachine::deliver(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (is_local(dst)) {
    enqueue(dst, std::move(msg));
    return;
  }
  // encode_frame refuses a by-reference payload: the runtime's location
  // layer only takes that path for same-process destinations.
  ship(pe_to_rank(dst), cxnet::encode_frame(*msg));
}

void HostMachine::send(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send: bad destination PE");
  }
  const int src = t_current_pe;
  msg->src_pe = src;
  if (agg_on_ && src >= 0) {
    auto& a = agg(src);
    if (cx::wire::agg_eligible(*msg, a.config())) {
      CX_TRACE_EVENT(src, now(), cx::trace::EventKind::MsgSend,
                     static_cast<std::uint64_t>(dst), msg->wire_size());
      // No flush timers here: pe_loop's idle hook seals open batches
      // before the scheduler ever sleeps, so the arm flag is unused.
      (void)a.absorb(std::move(msg));
      drain_agg(src);
      return;
    }
    // Bypassing message headed to a destination with an open batch:
    // seal the batch first so it stays ahead in the mailbox.
    if ((msg->wire_flags & kWireAggBatch) == 0 && dst != src &&
        msg->local == nullptr && a.dst_pending(dst)) {
      a.flush_dst(dst, cx::wire::AggFlush::Ordering);
      drain_agg(src);
    }
  }
  if ((msg->wire_flags & kWireAggBatch) == 0) {
    CX_TRACE_EVENT(src, now(), cx::trace::EventKind::MsgSend,
                   static_cast<std::uint64_t>(dst), msg->wire_size());
  }
  if (src >= 0 && dst != src && msg->local == nullptr) {
    cx::trace::detail::g_wire.transport_msgs.fetch_add(
        1, std::memory_order_relaxed);
  }
  if (ft_enabled_ && src >= 0 && dst != src && !msg->local) {
    FtWindows& me = *ft_pes_[lidx(src)];
    if (ft_.reliable && msg->ft_flags == 0) {
      double deadline = 0.0;
      {
        std::lock_guard<std::mutex> lk(inj_mutex_);
        deadline = now() + inj_->retry_timeout(0);
      }
      me.sw.arm(dst, enroll_reliable(me, *msg, deadline), deadline);
    }
    if (ft_.injecting()) {
      cx::ft::FaultInjector::Decision d;
      {
        std::lock_guard<std::mutex> lk(inj_mutex_);
        d = inj_->on_wire();
      }
      if (d.drop) {
        CX_TRACE_EVENT(src, now(), cx::trace::EventKind::FtDrop,
                       kDropInjected, msg->ft_seq);
        return;  // lost on the wire; the pending copy recovers it
      }
      if (d.dup) deliver(std::make_unique<Message>(*msg));
      if (d.extra_delay > 0.0 && is_local(dst)) {
        // Remote destinations skip injected latency (see header note).
        enqueue_delayed(dst, std::move(msg), now() + d.extra_delay);
        return;
      }
    }
  }
  deliver(std::move(msg));
}

void HostMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send_after: bad destination PE");
  }
  if (!is_local(dst)) {
    // Every runtime timer (future deadlines, heartbeat ticks, pool
    // beats) is self-directed; a remote timer has no owner clock.
    throw std::logic_error("send_after: destination PE is remote");
  }
  msg->src_pe = t_current_pe;
  // A timer delivery, not a network message: no trace, no injection.
  enqueue_delayed(dst, std::move(msg), now() + delay_s);
}

// ---------------------------------------------------------------------------
// Failure control. State changes initiated locally broadcast a control
// frame so every rank's view converges (a no-op with one rank); frames
// received from peers apply locally without rebroadcast.

void HostMachine::apply_kill(int pe) {
  if (pe < 0 || pe >= num_pes_ || !mark_crashed(pe)) return;
  wake(pe);  // so it starts discarding its backlog promptly
  notify_failure_once(pe, cx::ft::FailureKind::Crashed, now(), t_current_pe);
}

void HostMachine::apply_hang(int pe) {
  if (pe < 0 || pe >= num_pes_ || !mark_hung(pe)) return;
  // Wake the PE so it parks promptly. Silent by design: peers must
  // discover the hang themselves (retransmit give-up or heartbeats).
  wake(pe);
}

void HostMachine::apply_revive(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  if (!is_local(pe)) {
    clear_failure(pe);
    return;
  }
  // Discard everything the PE accumulated while down (a hung PE's
  // mailbox kept filling): restore rebuilds application state, so
  // pre-failure messages must not resurface in the revived PE.
  Mailbox& mb = *mailboxes_[lidx(pe)];
  std::lock_guard<std::mutex> lock(mb.mutex);
  mb.queue.clear();
  mb.delayed.clear();
  clear_failure(pe);
  mb.cv.notify_all();
}

void HostMachine::inject_kill(int pe) {
  broadcast_control(cxnet::ControlOp::Kill, pe);
  apply_kill(pe);
}

void HostMachine::inject_hang(int pe) {
  broadcast_control(cxnet::ControlOp::Hang, pe);
  apply_hang(pe);
}

void HostMachine::revive_pe(int pe) {
  broadcast_control(cxnet::ControlOp::Revive, pe);
  apply_revive(pe);
}

void HostMachine::declare_failed(int pe, cx::ft::FailureKind kind) {
  // Declared on external evidence (heartbeat silence): every rank's
  // liveness layer reaches its own verdict, so no broadcast — the
  // runtime's ft_notice round spreads the news at the protocol layer.
  if (pe < 0 || pe >= num_pes_) return;
  mark_declared(pe, kind);
  wake(pe);
  notify_failure_once(pe, kind, now(), t_current_pe);
}

void HostMachine::request_stop(bool broadcast) {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (broadcast) broadcast_control(cxnet::ControlOp::Stop, -1);
  for (auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lock(mb->mutex);
    mb->cv.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Comm thread: one epoll loop over the peer sockets + the wake pipe.

void HostMachine::ship(int rank, std::vector<std::byte> frame) {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    if (p.down || !p.fd.valid()) return;  // dead rank: drop, ft recovers
    p.outq.push_back(std::move(frame));
  }
  wake_comm();
}

void HostMachine::wake_comm() {
  const char b = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_w_, &b, 1);
  // EAGAIN means the pipe already holds a wake byte — good enough.
}

void HostMachine::broadcast_control(cxnet::ControlOp op, int pe) {
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    ship(r, cxnet::encode_control(op, pe, t_current_pe));
  }
}

bool HostMachine::all_out_drained() {
  std::lock_guard<std::mutex> lock(out_mutex_);
  for (const Peer& p : peers_) {
    if (!p.down && !p.outq.empty()) return false;
  }
  return true;
}

bool HostMachine::flush_peer(int rank) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  if (!p.fd.valid()) return true;
  for (;;) {
    std::vector<std::byte>* front = nullptr;
    {
      std::lock_guard<std::mutex> lock(out_mutex_);
      if (p.down) return true;
      if (p.outq.empty()) break;
      front = &p.outq.front();
    }
    // Only the comm thread pops, so `front` stays valid unlocked.
    const std::size_t left = front->size() - p.out_off;
    const ssize_t w = ::send(p.fd.get(), front->data() + p.out_off, left,
                             MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!p.want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = p.fd.get();
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd.get(), &ev);
          p.want_write = true;
        }
        return true;
      }
      peer_down(rank, std::string("send failed: ") + std::strerror(errno));
      return false;
    }
    p.out_off += static_cast<std::size_t>(w);
    if (p.out_off == front->size()) {
      p.out_off = 0;
      std::lock_guard<std::mutex> lock(out_mutex_);
      p.outq.pop_front();
    }
  }
  if (p.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = p.fd.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd.get(), &ev);
    p.want_write = false;
  }
  return true;
}

void HostMachine::handle_frame(int rank, const cxnet::Frame& f) {
  if (f.kind == cxnet::FrameKind::Control) {
    switch (static_cast<cxnet::ControlOp>(f.handler)) {
      case cxnet::ControlOp::Stop:
        request_stop(false);
        return;
      case cxnet::ControlOp::Kill:
        apply_kill(f.dst_pe);
        return;
      case cxnet::ControlOp::Hang:
        apply_hang(f.dst_pe);
        return;
      case cxnet::ControlOp::Revive:
        apply_revive(f.dst_pe);
        return;
    }
    CX_LOG_ERROR("rank ", rank, " sent unknown control opcode ", f.handler);
    return;
  }
  if (!is_local(f.dst_pe)) {
    CX_LOG_ERROR("rank ", rank, " misrouted a frame for PE ", f.dst_pe);
    return;
  }
  enqueue(f.dst_pe, cxnet::frame_to_message(f));
}

void HostMachine::peer_down(int rank, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    if (p.down) return;
    p.down = true;
    p.outq.clear();
  }
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  if (p.fd.valid()) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd.get(), nullptr);
    p.fd.reset();
  }
  if (stop_.load(std::memory_order_acquire)) return;  // orderly shutdown
  CX_LOG_WARN("connection to rank ", rank, " lost (", why,
              "): declaring its PEs failed");
  // The whole process is gone: every PE it hosted crashed at once. This
  // feeds the same pipeline as heartbeat declaration, so the runtime's
  // recovery machinery runs unchanged.
  for (int pe = rank * ppn_; pe < (rank + 1) * ppn_; ++pe) {
    if (mark_crashed(pe)) {
      notify_failure_once(pe, cx::ft::FailureKind::Crashed, now(),
                          t_current_pe);
    }
  }
}

void HostMachine::comm_loop() {
  cxu::set_log_pe(-1);
  double drain_deadline = -1.0;
  epoll_event events[64];
  std::byte buf[kReadChunk];
  for (;;) {
    // Push pending output first: PE threads only queue + wake.
    for (int r = 0; r < nranks_; ++r) {
      if (r != rank_) (void)flush_peer(r);
    }
    if (comm_stop_.load(std::memory_order_acquire)) {
      if (drain_deadline < 0.0) drain_deadline = now() + kDrainGrace;
      if (all_out_drained() || now() > drain_deadline) break;
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64,
                               comm_stop_.load(std::memory_order_acquire)
                                   ? 20
                                   : 200);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_r_) {
        char drain[256];
        while (::read(wake_r_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      int rank = -1;
      for (int r = 0; r < nranks_; ++r) {
        if (r != rank_ && peers_[static_cast<std::size_t>(r)].fd.valid() &&
            peers_[static_cast<std::size_t>(r)].fd.get() == fd) {
          rank = r;
          break;
        }
      }
      if (rank < 0) continue;  // raced with peer_down
      Peer& p = peers_[static_cast<std::size_t>(rank)];
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        peer_down(rank, "socket error/hangup");
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!flush_peer(rank)) continue;
      }
      if ((events[i].events & EPOLLIN) == 0) continue;
      bool dead = false;
      for (;;) {
        const ssize_t r = ::recv(p.fd.get(), buf, sizeof(buf), 0);
        if (r > 0) {
          p.reader.feed(buf, static_cast<std::size_t>(r));
          cxnet::Frame f;
          for (;;) {
            const auto st = p.reader.next(f);
            if (st == cxnet::FrameReader::Status::Frame) {
              handle_frame(rank, f);
              continue;
            }
            if (st == cxnet::FrameReader::Status::Error) {
              peer_down(rank, "protocol violation: " + p.reader.error());
              dead = true;
            }
            break;
          }
          if (dead) break;
          if (r < static_cast<ssize_t>(sizeof(buf))) break;
          continue;
        }
        if (r == 0) {
          peer_down(rank, "connection closed by peer");
          dead = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        peer_down(rank, std::string("recv failed: ") + std::strerror(errno));
        dead = true;
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler loops

void HostMachine::retransmit_due(int pe, FtWindows& me) {
  // Heap-driven: pop due deadlines off the sender's min-heap instead of
  // scanning every pending send. Stale heap entries (acked, abandoned,
  // or superseded by a later retransmit) are pruned lazily.
  const double tnow = now();
  for (;;) {
    me.sw.prune_due();
    if (me.sw.due.empty()) return;
    const cx::ft::SenderWindow::DueEntry e = me.sw.due.top();
    if (dead(e.dst)) {
      // Known-dead peer: retrying only generates noise.
      me.sw.due.pop();
      me.sw.abandon(e.dst);
      continue;
    }
    if (e.deadline > tnow) return;  // nothing (valid) due yet
    me.sw.due.pop();
    auto it = me.sw.pending.find({e.dst, e.seq});
    if (it == me.sw.pending.end()) continue;  // raced away; harmless
    cx::ft::PendingSend& p = it->second;
    if (p.attempts >= ft_.retry.max_attempts) {
      mark_unreachable(e.dst);
      me.sw.abandon(e.dst);
      notify_failure_once(e.dst, cx::ft::FailureKind::Unreachable, now(),
                          t_current_pe);
      continue;
    }
    p.attempts++;
    CX_TRACE_EVENT(pe, tnow, cx::trace::EventKind::FtRetransmit,
                   static_cast<std::uint64_t>(e.dst),
                   static_cast<std::uint64_t>(p.attempts));
    {
      std::lock_guard<std::mutex> lk(inj_mutex_);
      p.deadline = tnow + inj_->retry_timeout(p.attempts);
    }
    me.sw.arm(e.dst, e.seq, p.deadline);
    send(retransmit_copy(p));  // flags are set: no re-enrollment in send()
  }
}

void HostMachine::run() {
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  comm_stop_.store(false, std::memory_order_relaxed);
  epoch_ = cxu::wall_time();
  if (nranks_ > 1) comm_thread_ = std::thread([this] { comm_loop(); });
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ppn_));
  for (int pe = pe_base_; pe < pe_base_ + ppn_; ++pe) {
    threads.emplace_back([this, pe] { pe_loop(pe); });
  }
  for (auto& t : threads) t.join();
  if (comm_thread_.joinable()) {
    comm_stop_.store(true, std::memory_order_release);
    wake_comm();
    comm_thread_.join();
  }
  running_ = false;
}

void HostMachine::pe_loop(int pe) {
  t_current_pe = pe;
  cxu::set_log_pe(pe);
  Mailbox& mb = *mailboxes_[lidx(pe)];
  FtWindows* me = ft_enabled_ ? ft_pes_[lidx(pe)].get() : nullptr;
  constexpr double kNever = cx::ft::SenderWindow::kNever;
  while (true) {
    MessagePtr msg;
    bool stopping = false;
    bool flush_idle = false;
    double idle_s = -1.0;
    {
      std::unique_lock<std::mutex> lock(mb.mutex);
      for (;;) {
        if (any_failed_.load(std::memory_order_relaxed) && hung(pe)) {
          // A hung PE parks: it drains nothing, acks nothing, fires no
          // retransmits — total silence until revive_pe() or stop().
          // Its unacked sends and open batches die with it (own-thread
          // state, so only the owner may clear them).
          if (me && !me->sw.pending.empty()) {
            me->sw.pending.clear();
            while (!me->sw.due.empty()) me->sw.due.pop();
          }
          if (agg_on_) aggs_[lidx(pe)].reset();
          if (stop_.load(std::memory_order_acquire)) {
            stopping = true;
            break;
          }
          mb.cv.wait(lock);
          continue;
        }
        const double tnow = now();
        // Promote deferred deliveries that have come due.
        while (!mb.delayed.empty() && mb.delayed.begin()->first <= tnow) {
          mb.queue.push_back(std::move(mb.delayed.begin()->second));
          mb.delayed.erase(mb.delayed.begin());
        }
        if (!mb.queue.empty()) break;
        if (stop_.load(std::memory_order_acquire)) {
          stopping = true;
          break;
        }
        if (agg_on_ && agg_pending(pe)) {
          // Idle hook: out of work with open batches — seal and send
          // them (outside the mailbox lock) before going to sleep.
          flush_idle = true;
          break;
        }
        // The scheduler is about to sleep: bound the wait by the next
        // deferred delivery and (with ft on) the next retransmit
        // deadline of our own unacked sends.
        double dl = mb.delayed.empty() ? kNever : mb.delayed.begin()->first;
        if (me) dl = std::min(dl, me->sw.next_deadline());
        if (dl <= tnow) break;  // a retransmit is due; handle below
        const double t0 = cxu::wall_time();
        if (dl >= kNever) {
          mb.cv.wait(lock);
        } else {
          mb.cv.wait_for(lock, std::chrono::duration<double>(dl - tnow));
        }
        const double waited = cxu::wall_time() - t0;
        idle_s = (idle_s < 0.0 ? 0.0 : idle_s) + waited;
      }
      if (!mb.queue.empty()) {
        msg = std::move(mb.queue.front());
        mb.queue.pop_front();
      }
    }
    if (idle_s >= 0.0) {
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::Idle,
                     static_cast<std::uint64_t>(idle_s * 1e9), 0);
    }
    if (me && !me->sw.pending.empty()) retransmit_due(pe, *me);
    const bool down = any_failed_.load(std::memory_order_relaxed) &&
                      crashed(pe);
    if (!msg) {
      if (stopping) break;
      if (flush_idle) {
        if (down) {
          // A crashed PE's unsent batches die with it (like its
          // mailbox backlog) — drop them instead of spinning.
          aggs_[lidx(pe)].reset();
        } else {
          agg(pe).flush_all(cx::wire::AggFlush::Idle);
          drain_agg(pe);
        }
      }
      continue;  // woke only to flush batches / service retransmits
    }
    if (down) {
      // A crashed PE drains its mailbox but processes — and acks —
      // nothing, so peers see it as dead.
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop, kDropDeadDst,
                     msg->ft_seq);
      continue;
    }
    // On stop, finish promptly: remaining queued messages are dropped
    // by design (mirrors charm.exit() semantics).
    if (receive(pe, std::move(msg), me, 0.0) &&
        stop_.load(std::memory_order_acquire)) {
      break;
    }
  }
  t_current_pe = -1;
  cxu::set_log_pe(-1);
}

}  // namespace cxm
