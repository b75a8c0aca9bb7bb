// Lock and barrier implementation.
//
// Locks: each lock has a statically assigned home node (lock % num_nodes).
// Acquire requests go to the home, which either grants immediately or
// queues the requester; the grant carries the last releaser's vector clock
// and the interval metas the requester lacks, per lazy release consistency.
// Releases close the releaser's current interval and push its consistency
// data to the home.
//
// Barriers: centralized manager on node 0.  Arrivals close the arriver's
// interval and carry its new interval metas; the release broadcast carries
// the global clock and, per node, exactly the metas it lacks.  A node's
// message to itself is a local operation and is not counted (see the
// loopback rule in the transport's accounting).
//
// Both round trips use the transport's split-phase post/wait pair: the
// request is on the wire before wait blocks, which matters because wait
// is where remote metas overlap with local close_interval work on the
// manager side.
#include <algorithm>

#include "src/common/timer.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::core {

namespace {

constexpr NodeId kBarrierManager = 0;

}  // namespace

// ---------------------------------------------------------------------------
// Locks: compute side
// ---------------------------------------------------------------------------

void DsmNode::lock_acquire(LockId lock) {
  // The adaptive engine's determinism argument (identical write census on
  // every node, folded at barrier rendezvous) has no analogue for the
  // pairwise lock paths, so adaptive runs are barrier-only by contract.
  SDSM_REQUIRE_MSG(policy_ == nullptr,
                   "adaptive coherence supports barrier-only synchronization");
  consume_prefetch();  // a prefetch never straddles a synchronization op
  stats().lock_acquires.add(1);
  const NodeId home = lock % num_nodes();

  Writer w;
  w.put<std::uint32_t>(lock);
  vc_.serialize(w);

  net::Message msg;
  msg.type = kLockAcquire;
  msg.src = id_;
  msg.dst = home;
  msg.payload = w.take();
  const net::Ticket ticket = rt_.net_->post(std::move(msg));

  net::Message grant = rt_.net_->wait(ticket);
  SDSM_ASSERT(grant.type == kLockGrant);
  Reader r(grant.payload);
  VectorClock release_vc = VectorClock::deserialize(r);
  std::vector<IntervalMeta> metas = deserialize_metas(r);
  process_metas(std::move(metas));
  vc_.merge(release_vc);
}

void DsmNode::lock_release(LockId lock) {
  const NodeId home = lock % num_nodes();
  close_interval();

  Writer w;
  w.put<std::uint32_t>(lock);
  vc_.serialize(w);
  {
    std::lock_guard<std::mutex> g(meta_mu_);
    serialize_metas(w, metas_not_covered_locked(last_seen_vc_[home]));
  }

  net::Message msg;
  msg.type = kLockRelease;
  msg.src = id_;
  msg.dst = home;
  msg.request_id = 0;  // one-way
  msg.payload = w.take();
  rt_.net_->send(net::Port::kService, std::move(msg));
}

// ---------------------------------------------------------------------------
// Locks: home (request handlers)
// ---------------------------------------------------------------------------

void DsmNode::grant_lock_locked(LockId lock, const LockHome::Waiter& to) {
  LockHome& lh = lock_homes_[lock];
  Writer w;
  lh.last_release_vc.serialize(w);
  serialize_metas(w, metas_not_covered_locked(to.vc));

  net::Message grant;
  grant.type = kLockGrant;
  grant.src = id_;
  grant.dst = to.node;
  grant.request_id = to.request_id;
  grant.payload = w.take();
  rt_.net_->send(net::Port::kReply, std::move(grant));
}

void DsmNode::serve_lock_acquire(const net::Message& msg) {
  Reader r(msg.payload);
  const auto lock = r.get<std::uint32_t>();
  VectorClock vc = VectorClock::deserialize(r);

  std::lock_guard<std::mutex> g(meta_mu_);
  last_seen_vc_[msg.src].merge(vc);
  auto [it, inserted] = lock_homes_.try_emplace(lock);
  LockHome& lh = it->second;
  if (inserted) lh.last_release_vc = VectorClock(num_nodes());

  const LockHome::Waiter waiter{msg.src, msg.request_id, std::move(vc)};
  if (!lh.held) {
    lh.held = true;
    lh.holder = msg.src;
    grant_lock_locked(lock, waiter);
  } else {
    lh.queue.push_back(waiter);
  }
}

void DsmNode::serve_lock_release(const net::Message& msg) {
  Reader r(msg.payload);
  const auto lock = r.get<std::uint32_t>();
  VectorClock vc = VectorClock::deserialize(r);
  std::vector<IntervalMeta> metas = deserialize_metas(r);

  std::lock_guard<std::mutex> g(meta_mu_);
  insert_metas_locked(std::move(metas));
  last_seen_vc_[msg.src].merge(vc);

  auto it = lock_homes_.find(lock);
  SDSM_ASSERT(it != lock_homes_.end());
  LockHome& lh = it->second;
  SDSM_ASSERT(lh.held && lh.holder == msg.src);
  lh.last_release_vc.merge(vc);
  if (lh.queue.empty()) {
    lh.held = false;
    return;
  }
  const LockHome::Waiter next = lh.queue.front();
  lh.queue.erase(lh.queue.begin());
  lh.holder = next.node;
  grant_lock_locked(lock, next);
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void DsmNode::barrier() {
  consume_prefetch();  // a prefetch never straddles a synchronization op
  const Timer phase;
  stats().barriers.add(1);
  barrier_round(/*allow_gc=*/true);
  // One policy epoch per barrier(), ticked after release processing so
  // every node has folded exactly the same set of intervals (a GC's inner
  // round folds before the tick too).  Identical census + the same
  // constant thresholds => identical classification on every node, with
  // no directory traffic.
  if (policy_) policy_->tick();
  stats().t_barrier_ns.add(static_cast<std::uint64_t>(phase.elapsed_s() * 1e9));
}

void DsmNode::barrier_round(bool allow_gc) {
  close_interval();

  bool want_gc = false;
  Writer w;
  vc_.serialize(w);
  {
    std::lock_guard<std::mutex> g(meta_mu_);
    serialize_metas(w, metas_not_covered_locked(last_seen_vc_[kBarrierManager]));
    want_gc = allow_gc && config().gc_threshold_bytes > 0 &&
              diff_store_bytes_ > config().gc_threshold_bytes;
  }
  w.put<std::uint8_t>(want_gc ? 1 : 0);

  net::Message msg;
  msg.type = kBarrierArrive;
  msg.src = id_;
  msg.dst = kBarrierManager;
  msg.payload = w.take();
  const net::Ticket ticket = rt_.net_->post(std::move(msg));

  net::Message release = rt_.net_->wait(ticket);
  SDSM_ASSERT(release.type == kBarrierRelease);
  Reader r(release.payload);
  VectorClock global_vc = VectorClock::deserialize(r);
  std::vector<IntervalMeta> metas = deserialize_metas(r);
  const bool do_gc = r.get<std::uint8_t>() != 0;
  process_metas(std::move(metas));
  vc_.merge(global_vc);
  {
    // Every node's clock covers global_vc once it leaves this barrier, so
    // it is a sound lower bound for future meta selection.
    std::lock_guard<std::mutex> g(meta_mu_);
    for (NodeId p = 0; p < num_nodes(); ++p) {
      last_seen_vc_[p].merge(global_vc);
    }
  }

  if (do_gc) {
    // TreadMarks GC: bring every page current (emptying the pending sets),
    // re-synchronize so no node can still request an old diff, then drop
    // the stores and logs.  The flush itself creates no new intervals.
    SDSM_ASSERT(allow_gc);
    flush_all_pending();
    barrier_round(/*allow_gc=*/false);
    gc_drop();
  }
}

void DsmNode::serve_barrier_arrive(const net::Message& msg) {
  SDSM_ASSERT(id_ == kBarrierManager);
  Reader r(msg.payload);
  VectorClock vc = VectorClock::deserialize(r);
  std::vector<IntervalMeta> metas = deserialize_metas(r);
  const bool want_gc = r.get<std::uint8_t>() != 0;

  std::lock_guard<std::mutex> g(meta_mu_);
  insert_metas_locked(std::move(metas));
  last_seen_vc_[msg.src].merge(vc);
  barrier_mgr_.want_gc |= want_gc;
  barrier_mgr_.arrivals.push_back(
      BarrierMgr::Arrival{msg.src, msg.request_id, std::move(vc)});

  if (barrier_mgr_.arrivals.size() < num_nodes()) return;

  VectorClock global(num_nodes());
  for (const auto& a : barrier_mgr_.arrivals) global.merge(a.vc);

  // The manager's own (loopback, uncounted) release goes out LAST: its
  // compute thread wakes on it, and after the run's final barrier nothing
  // downstream ever waits on the released peers again — so if it woke
  // first it could finish the run and snapshot the stats while this
  // handler was still sending (and counting) the peers' releases,
  // splitting those sends across a process-mode worker's snapshot cut.
  // With the self-release last, every counted release precedes the wake.
  const auto release_one = [&](const BarrierMgr::Arrival& a) {
    Writer w;
    global.serialize(w);
    serialize_metas(w, metas_not_covered_locked(a.vc));
    w.put<std::uint8_t>(barrier_mgr_.want_gc ? 1 : 0);
    net::Message release;
    release.type = kBarrierRelease;
    release.src = id_;
    release.dst = a.node;
    release.request_id = a.request_id;
    release.payload = w.take();
    rt_.net_->send(net::Port::kReply, std::move(release));
  };
  for (const auto& a : barrier_mgr_.arrivals) {
    if (a.node != id_) release_one(a);
  }
  for (const auto& a : barrier_mgr_.arrivals) {
    if (a.node == id_) release_one(a);
  }
  barrier_mgr_.arrivals.clear();
  barrier_mgr_.want_gc = false;
}

// ---------------------------------------------------------------------------
// Quiescence fence
// ---------------------------------------------------------------------------

void DsmNode::quiesce_fence() {
  net::Message msg;
  msg.type = net::kControlSync;
  msg.src = id_;
  msg.dst = kBarrierManager;
  const net::Ticket ticket = rt_.net_->post(std::move(msg));
  const net::Message release = rt_.net_->wait(ticket);
  SDSM_ASSERT(release.type == net::kControlSync);
}

void DsmNode::serve_control_sync(const net::Message& msg) {
  SDSM_ASSERT(id_ == kBarrierManager);
  std::lock_guard<std::mutex> g(meta_mu_);
  fence_waiters_.emplace_back(msg.src, msg.request_id);
  if (fence_waiters_.size() < num_nodes()) return;

  for (const auto& [node, request_id] : fence_waiters_) {
    net::Message release;
    release.type = net::kControlSync;
    release.src = id_;
    release.dst = node;
    release.request_id = request_id;
    rt_.net_->send(net::Port::kReply, std::move(release));
  }
  fence_waiters_.clear();
}

}  // namespace sdsm::core
