// Server-side overload protection: bounded call queues with pluggable
// admission policies, in-band deadline propagation, retry-cache dedup of
// retried calls, graceful degradation on buffer-pool exhaustion, and the
// stop()-drain accounting — on both transports.
//
// Every test is seedable through RPCOIB_CHAOS_SEED (the chaos-suite
// convention) so CI can sweep seeds; same seed => byte-identical runs. The
// storm also reads RPCOIB_SHARDS for its server shard count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/testbed.hpp"
#include "rpc/overload.hpp"
#include "rpc/resilience.hpp"
#include "rpcoib/engine.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"

namespace rpcoib {
namespace {

using net::Address;
using net::Testbed;
using oib::EngineConfig;
using oib::RpcEngine;
using oib::RpcMode;
using sim::Co;
using sim::Scheduler;
using sim::Task;

constexpr Address kAddr{1, 9500};
const rpc::MethodKey kEcho{"test.SlowProtocol", "echo"};
const rpc::MethodKey kSlow{"test.SlowProtocol", "slow"};
const rpc::MethodKey kSlowB{"test.OtherProtocol", "slow"};
const rpc::MethodKey kBump{"test.SlowProtocol", "bump"};
const rpc::MethodKey kPut{"test.BulkProtocol", "put"};

std::uint64_t chaos_seed() {
  const char* env = std::getenv("RPCOIB_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

int chaos_shards() {
  const char* env = std::getenv("RPCOIB_SHARDS");
  return env != nullptr ? static_cast<int>(std::strtoul(env, nullptr, 10)) : 1;
}

/// echo: IntWritable roundtrip. slow/slowB: sleep `slow_for`, return true.
/// bump: non-idempotent — increments *runs, sleeps `bump_for`, returns the
/// new count. put: reads a BytesWritable, acks with a small boolean.
void register_suite(rpc::RpcServer& server, cluster::Host& host, int* runs = nullptr,
                    sim::Dur slow_for = sim::seconds(5),
                    sim::Dur bump_for = sim::seconds(2)) {
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method,
      [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::IntWritable v;
        v.read_fields(in);
        v.write(out);
        co_return;
      });
  auto slow = [&host, slow_for](rpc::DataInput&, rpc::DataOutput& out) -> Co<void> {
    co_await sim::delay(host.sched(), slow_for);
    rpc::BooleanWritable(true).write(out);
  };
  server.dispatcher().register_method(kSlow.protocol, kSlow.method, slow);
  server.dispatcher().register_method(kSlowB.protocol, kSlowB.method, slow);
  if (runs != nullptr) {
    server.dispatcher().register_method(
        kBump.protocol, kBump.method,
        [&host, runs, bump_for](rpc::DataInput&, rpc::DataOutput& out) -> Co<void> {
          ++*runs;
          co_await sim::delay(host.sched(), bump_for);
          rpc::IntWritable(*runs).write(out);
        });
  }
  server.dispatcher().register_method(
      kPut.protocol, kPut.method, [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::BytesWritable payload;
        payload.read_fields(in);
        rpc::BooleanWritable(true).write(out);
        co_return;
      });
}

enum CallOutcome { kPending = 0, kOk, kBusy, kTimeout, kOtherError };

Task call_one(rpc::RpcClient& client, const rpc::MethodKey& key, CallOutcome& outcome) {
  rpc::NullWritable arg;
  rpc::BooleanWritable resp;
  try {
    co_await client.call(kAddr, key, arg, &resp);
    outcome = kOk;
  } catch (const rpc::ServerBusyException&) {
    outcome = kBusy;
  } catch (const rpc::RpcTimeoutError&) {
    outcome = kTimeout;
  } catch (const rpc::RpcTransportError&) {
    outcome = kOtherError;
  }
}

// --- Pure policy/cache units ------------------------------------------------

TEST(Overload, RetryCacheEvictsLeastRecentlyUsed) {
  rpc::RetryCache cache(2);
  EXPECT_EQ(cache.begin(1, 1), rpc::RetryCache::State::kFresh);
  cache.complete(1, 1, net::Bytes{1});
  EXPECT_EQ(cache.begin(1, 2), rpc::RetryCache::State::kFresh);
  cache.complete(1, 2, net::Bytes{2});
  // Touch (1,1) so (1,2) becomes the LRU entry, then insert a third.
  EXPECT_EQ(cache.begin(1, 1), rpc::RetryCache::State::kCompleted);
  EXPECT_EQ(cache.begin(1, 3), rpc::RetryCache::State::kFresh);
  cache.complete(1, 3, net::Bytes{3});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.completed_frame(1, 2), nullptr);  // LRU entry was evicted
  EXPECT_NE(cache.completed_frame(1, 1), nullptr);  // recently-touched kept

  // A completion whose in-progress entry was evicted mid-execution is
  // re-inserted: the retry on its way must still find the outcome.
  rpc::RetryCache tiny(1);
  EXPECT_EQ(tiny.begin(7, 1), rpc::RetryCache::State::kFresh);
  EXPECT_EQ(tiny.begin(7, 2), rpc::RetryCache::State::kFresh);  // evicts (7,1)
  tiny.complete(7, 1, net::Bytes{9});
  ASSERT_NE(tiny.completed_frame(7, 1), nullptr);
  EXPECT_EQ((*tiny.completed_frame(7, 1))[0], 9);
}

TEST(Overload, AdmissionPolicyDecisions) {
  rpc::OverloadConfig cfg;
  cfg.max_call_queue = 2;
  rpc::AdmissionController newest(cfg);
  EXPECT_EQ(newest.decide(1, "p"), rpc::AdmissionController::Decision::kAdmit);
  EXPECT_EQ(newest.decide(2, "p"), rpc::AdmissionController::Decision::kShedNewest);

  cfg.policy = rpc::AdmissionPolicy::kRejectOldest;
  rpc::AdmissionController oldest(cfg);
  EXPECT_EQ(oldest.decide(2, "p"), rpc::AdmissionController::Decision::kShedOldest);

  cfg.policy = rpc::AdmissionPolicy::kProtocolQuota;
  cfg.max_call_queue = 10;
  cfg.protocol_quota = 1;
  rpc::AdmissionController quota(cfg);
  EXPECT_EQ(quota.decide(0, "a"), rpc::AdmissionController::Decision::kAdmit);
  quota.on_enqueue("a");
  EXPECT_EQ(quota.decide(1, "a"), rpc::AdmissionController::Decision::kShedNewest);
  EXPECT_EQ(quota.decide(1, "b"), rpc::AdmissionController::Decision::kAdmit);
  quota.on_dequeue("a");
  EXPECT_EQ(quota.decide(0, "a"), rpc::AdmissionController::Decision::kAdmit);
}

// --- Admission control on the wire ------------------------------------------

TEST(Overload, RejectNewestShedsExcessCalls) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::OverloadConfig ov;
    ov.max_call_queue = 2;
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_handlers = 1, .overload = ov});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    std::vector<CallOutcome> results(6, kPending);
    for (CallOutcome& r : results) s.spawn(call_one(*client, kSlow, r));
    s.run_until(sim::seconds(60));

    int ok = 0, busy = 0;
    for (CallOutcome r : results) {
      if (r == kOk) ++ok;
      if (r == kBusy) ++busy;
    }
    EXPECT_EQ(ok + busy, 6);
    EXPECT_GE(busy, 1);
    EXPECT_GE(ok, 1);
    EXPECT_EQ(server->stats().calls_shed, static_cast<std::uint64_t>(busy));
    EXPECT_LE(server->stats().queue_depth_peak, 2u);
    server->stop();
    s.drain_tasks();
  }
}

TEST(Overload, ShedCallsAreRetryableToCompletion) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::OverloadConfig ov;
    ov.max_call_queue = 2;
    rpc::RpcRetryPolicy retry;
    retry.max_retries = 30;
    retry.backoff_base = sim::millis(200);
    // No call_timeout: the only failure mode in play is "busy", which is
    // always retryable — even for non-idempotent methods (never executed).
    retry.non_idempotent.insert(kSlow.to_string());
    RpcEngine engine(tb, EngineConfig{.mode = mode,
                                      .server_handlers = 1,
                                      .retry = retry,
                                      .overload = ov});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1), nullptr, /*slow_for=*/sim::seconds(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    std::vector<CallOutcome> results(6, kPending);
    for (CallOutcome& r : results) s.spawn(call_one(*client, kSlow, r));
    s.run_until(sim::seconds(120));

    for (CallOutcome r : results) EXPECT_EQ(r, kOk);
    EXPECT_GT(client->stats().busy_rejections, 0u);
    EXPECT_GT(server->stats().calls_shed, 0u);
    EXPECT_LE(server->stats().queue_depth_peak, 2u);
    server->stop();
    s.drain_tasks();
  }
}

TEST(Overload, RejectOldestFavorsNewestArrivals) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::OverloadConfig ov;
    ov.max_call_queue = 2;
    ov.policy = rpc::AdmissionPolicy::kRejectOldest;
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_handlers = 1, .overload = ov});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    std::vector<CallOutcome> results(6, kPending);
    for (CallOutcome& r : results) s.spawn(call_one(*client, kSlow, r));
    s.run_until(sim::seconds(60));

    int ok = 0, busy = 0;
    for (CallOutcome r : results) {
      if (r == kOk) ++ok;
      if (r == kBusy) ++busy;
    }
    EXPECT_EQ(ok + busy, 6);
    EXPECT_GE(busy, 1);
    // Under reject-oldest the *last* arrival survives — the inverse of the
    // reject-newest shape, proving the policy switch reached the queue.
    EXPECT_EQ(results.back(), kOk);
    EXPECT_EQ(server->stats().calls_shed, static_cast<std::uint64_t>(busy));
    EXPECT_LE(server->stats().queue_depth_peak, 2u);
    server->stop();
    s.drain_tasks();
  }
}

TEST(Overload, ProtocolQuotaIsolatesProtocols) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::OverloadConfig ov;
    ov.policy = rpc::AdmissionPolicy::kProtocolQuota;
    ov.max_call_queue = 8;
    ov.protocol_quota = 1;
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_handlers = 1, .overload = ov});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    // Three calls on protocol A exceed its quota of one queued call; the
    // other protocol's call must still be admitted.
    std::vector<CallOutcome> a(3, kPending);
    CallOutcome b = kPending;
    for (CallOutcome& r : a) s.spawn(call_one(*client, kSlow, r));
    s.spawn(call_one(*client, kSlowB, b));
    s.run_until(sim::seconds(60));

    int a_busy = 0;
    for (CallOutcome r : a) {
      if (r == kBusy) ++a_busy;
    }
    EXPECT_GE(a_busy, 1);
    EXPECT_EQ(b, kOk);
    EXPECT_EQ(server->stats().calls_shed, static_cast<std::uint64_t>(a_busy));
    server->stop();
    s.drain_tasks();
  }
}

// --- Deadline propagation ---------------------------------------------------

TEST(Overload, DeadlineExpiresQueuedCallsAndDropsLateResponses) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::seconds(1);  // handler runs 5 s
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_handlers = 1, .retry = retry});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    std::vector<CallOutcome> results(4, kPending);
    for (CallOutcome& r : results) s.spawn(call_one(*client, kSlow, r));
    s.run_until(sim::seconds(60));

    for (CallOutcome r : results) EXPECT_EQ(r, kTimeout);
    // The executing call finishes past its deadline (response dropped
    // unsent); the three queued behind it expire at dequeue unexecuted.
    EXPECT_EQ(server->stats().responses_expired, 1u);
    EXPECT_EQ(server->stats().calls_expired, 3u);
    EXPECT_EQ(server->stats().calls_handled, 1u);
    EXPECT_EQ(client->stats().timeouts, 4u);
    server->stop();
    s.drain_tasks();
  }
}

// --- Retry cache: non-idempotent safety -------------------------------------

TEST(Overload, RetryCacheMakesTimeoutRetrySafeForNonIdempotent) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::seconds(1);  // bump runs 2 s
    retry.max_retries = 5;
    retry.backoff_base = sim::millis(200);
    retry.non_idempotent.insert(kBump.to_string());
    retry.retry_non_idempotent_on_timeout = true;
    rpc::OverloadConfig ov;
    ov.retry_cache_entries = 64;
    RpcEngine engine(tb, EngineConfig{.mode = mode,
                                      .server_handlers = 1,
                                      .retry = retry,
                                      .overload = ov});
    auto server = engine.make_server(tb.host(1), kAddr);
    int runs = 0;
    register_suite(*server, tb.host(1), &runs);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    int out = 0;
    s.spawn([](rpc::RpcClient& c, int& v) -> Task {
      rpc::NullWritable arg;
      rpc::IntWritable resp;
      co_await c.call(kAddr, kBump, arg, &resp);
      v = resp.value;
    }(*client, out));
    s.run_until(sim::seconds(60));

    // The first attempt executed but answered too late; the retry was
    // served from the cache. One execution, correct value, no double bump.
    EXPECT_EQ(out, 1);
    EXPECT_EQ(runs, 1);
    EXPECT_GE(client->stats().timeouts, 1u);
    EXPECT_GE(client->stats().retries, 1u);
    EXPECT_GE(server->stats().dedup_hits, 1u);
    EXPECT_EQ(server->stats().responses_expired, 1u);
    server->stop();
    s.drain_tasks();
  }
}

TEST(Overload, InFlightDuplicateIsDroppedNotReexecuted) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::seconds(1);  // bump runs 3 s
    retry.max_retries = 6;
    retry.backoff_base = sim::millis(500);
    retry.non_idempotent.insert(kBump.to_string());
    retry.retry_non_idempotent_on_timeout = true;
    rpc::OverloadConfig ov;
    ov.retry_cache_entries = 64;
    RpcEngine engine(tb, EngineConfig{.mode = mode,
                                      .server_handlers = 2,
                                      .retry = retry,
                                      .overload = ov});
    auto server = engine.make_server(tb.host(1), kAddr);
    int runs = 0;
    register_suite(*server, tb.host(1), &runs, sim::seconds(5), /*bump_for=*/sim::seconds(3));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    int out = 0;
    s.spawn([](rpc::RpcClient& c, int& v) -> Task {
      rpc::NullWritable arg;
      rpc::IntWritable resp;
      co_await c.call(kAddr, kBump, arg, &resp);
      v = resp.value;
    }(*client, out));
    s.run_until(sim::seconds(120));

    // A retry that lands while the first attempt is still executing on the
    // other handler is dropped, not run concurrently; a later retry is
    // answered from the cache.
    EXPECT_EQ(out, 1);
    EXPECT_EQ(runs, 1);
    EXPECT_GE(server->stats().dedup_in_flight, 1u);
    EXPECT_GE(server->stats().dedup_hits, 1u);
    server->stop();
    s.drain_tasks();
  }
}

// --- Graceful degradation: buffer-pool exhaustion ---------------------------

Task put_one(rpc::RpcClient& client, std::size_t bytes, CallOutcome& outcome) {
  rpc::BytesWritable payload(net::Bytes(bytes, net::Byte{0x5a}));
  rpc::BooleanWritable resp;
  try {
    co_await client.call(kAddr, kPut, payload, &resp);
    outcome = resp.value ? kOk : kOtherError;
  } catch (const rpc::ServerBusyException&) {
    outcome = kBusy;
  } catch (const rpc::RpcTransportError&) {
    outcome = kOtherError;
  }
}

TEST(Overload, PoolExhaustionNacksRendezvousAndFallsBackToSocket) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_handlers = 1};
  // Recv slots come from the freelist; only the >64 KB rendezvous class is
  // demand-allocated, and at most one demand allocation is allowed.
  ec.pool.buffers_per_class = 32;
  ec.pool.demand_alloc_cap = 1;
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  register_suite(*server, tb.host(1));
  server->start();
  // The client gets its own *uncapped* pool: the cap under test here is the
  // server's rendezvous-fetch one (client-side serialization caps are
  // covered by the Regrow* tests).
  oib::RdmaClientConfig cc;
  cc.pool.buffers_per_class = 32;
  std::unique_ptr<rpc::RpcClient> client = std::make_unique<oib::RdmaRpcClient>(
      tb.host(0), tb.sockets(), engine.verbs(), cc);

  // Six concurrent 96 KB calls: the first rendezvous fetch takes the one
  // allowed demand allocation; overlapping fetches are NACKed and must
  // complete transparently over the socket fallback path.
  std::vector<CallOutcome> results(6, kPending);
  for (CallOutcome& r : results) s.spawn(put_one(*client, 96u << 10, r));
  s.run_until(sim::seconds(60));

  for (CallOutcome r : results) EXPECT_EQ(r, kOk);
  auto* srv = dynamic_cast<oib::RdmaRpcServer*>(server.get());
  ASSERT_NE(srv, nullptr);
  const oib::PoolStats& pool = srv->pool().native().stats();
  EXPECT_LE(pool.demand_allocations, 1u);
  EXPECT_GE(pool.demand_denied, 1u);
  EXPECT_GE(server->stats().pool_nacks, 1u);
  EXPECT_EQ(server->stats().pool_nacks,
            client->stats().nack_fallbacks);
  // A NACK is transient back-pressure, not a broken transport: the address
  // is NOT rerouted permanently.
  auto* rdma = dynamic_cast<oib::RdmaRpcClient*>(client.get());
  ASSERT_NE(rdma, nullptr);
  EXPECT_EQ(rdma->fallback_address_count(), 0u);
  server->stop();
  s.drain_tasks();
}

// The same cap on the *client* side: serializing a large request re-gets
// through try_acquire now, so a capped client pool degrades the call to
// the socket fallback instead of demand-allocating past the cap (or
// failing the call outright).
TEST(Overload, ClientRegrowCapDegradesToSocketFallback) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_handlers = 2};
  ec.pool.buffers_per_class = 32;
  ec.pool.demand_alloc_cap = 1;
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  register_suite(*server, tb.host(1));
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  // Three concurrent 96 KB puts: the first serialization takes the one
  // allowed demand allocation and keeps it leased until its response; the
  // overlapping ones are denied mid-serialization and must complete over
  // the socket path.
  std::vector<CallOutcome> results(3, kPending);
  for (CallOutcome& r : results) s.spawn(put_one(*client, 96u << 10, r));
  s.run_until(sim::seconds(60));

  for (CallOutcome r : results) EXPECT_EQ(r, kOk);
  EXPECT_GE(client->stats().nack_fallbacks, 1u);
  auto* rdma = dynamic_cast<oib::RdmaRpcClient*>(client.get());
  ASSERT_NE(rdma, nullptr);
  const oib::PoolStats& pool = rdma->pool().native().stats();
  EXPECT_LE(pool.demand_allocations, 1u);
  EXPECT_GE(pool.demand_denied, 1u);
  // Pool pressure is transient: the address is not rerouted permanently.
  EXPECT_EQ(rdma->fallback_address_count(), 0u);
  server->stop();
  s.drain_tasks();
}

// --- stop() drain accounting ------------------------------------------------

TEST(Overload, SocketStopDrainsQueuedCallsWithAccounting) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kSocketIPoIB, .server_handlers = 1});
  auto server = engine.make_server(tb.host(1), kAddr);
  register_suite(*server, tb.host(1));
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  std::vector<CallOutcome> results(4, kPending);
  for (CallOutcome& r : results) s.spawn(call_one(*client, kSlow, r));
  s.run_until(sim::seconds(1));  // one executing, three queued
  server->stop();
  s.run_until(sim::seconds(30));

  // Queued-but-unexecuted calls are counted, and every caller (including
  // the in-flight one) observes a transport error — nothing hangs or
  // vanishes silently.
  EXPECT_EQ(server->stats().dropped_on_stop, 3u);
  for (CallOutcome r : results) EXPECT_EQ(r, kOtherError);
  s.drain_tasks();
}

TEST(Overload, RpcoibStopReleasesEveryPooledBuffer) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kRpcoIB, .server_handlers = 1});
  auto server = engine.make_server(tb.host(1), kAddr);
  register_suite(*server, tb.host(1));
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  std::vector<CallOutcome> results(4, kPending);
  for (CallOutcome& r : results) s.spawn(call_one(*client, kSlow, r));
  s.run_until(sim::seconds(1));  // one executing, three queued
  server->stop();
  auto* rdma = dynamic_cast<oib::RdmaRpcClient*>(client.get());
  ASSERT_NE(rdma, nullptr);
  rdma->close_connections();
  s.run_until(sim::seconds(30));

  // Queued call frames, posted receive slots, and the in-flight call's
  // buffer all return to the pool: acquires balance releases exactly.
  auto* srv = dynamic_cast<oib::RdmaRpcServer*>(server.get());
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(server->stats().dropped_on_stop, 3u);
  EXPECT_EQ(srv->pool().native().stats().acquires, srv->pool().native().stats().releases);
  s.drain_tasks();
}

// --- Dispatch errors --------------------------------------------------------

TEST(Overload, UnknownMethodNamesProtocolAndMethodOnBothTransports) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    RpcEngine engine(tb, EngineConfig{.mode = mode});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    std::string remote_msg;
    s.spawn([](rpc::RpcClient& c, std::string& msg) -> Task {
      rpc::NullWritable arg;
      // Named local per the task.hpp codebase rule: a temporary MethodKey
      // inside a co_await statement is double-destroyed by GCC 12.
      const rpc::MethodKey nosuch{"test.SlowProtocol", "nosuch"};
      try {
        co_await c.call(kAddr, nosuch, arg, nullptr);
      } catch (const rpc::RemoteException& e) {
        msg = e.what();
      }
    }(*client, remote_msg));
    s.run_until(sim::seconds(30));

    // The RemoteException must name the <protocol, method> pair so a
    // version-skewed client can tell *what* the server rejected.
    EXPECT_NE(remote_msg.find("test.SlowProtocol"), std::string::npos) << remote_msg;
    EXPECT_NE(remote_msg.find("nosuch"), std::string::npos) << remote_msg;
    server->stop();
    s.drain_tasks();
  }
}

// --- The seeded overload storm ----------------------------------------------

Task storm_burst(Scheduler& s, rpc::RpcClient& client, int echoes, int bumps,
                 std::size_t put_bytes, int& completed, int& failed) {
  for (int i = 0; i < echoes + bumps + 1; ++i) {
    try {
      if (i < echoes) {
        rpc::IntWritable param(i), resp;
        co_await client.call(kAddr, kEcho, param, &resp);
        if (resp.value == i) ++completed;
      } else if (i < echoes + bumps) {
        rpc::NullWritable arg;
        rpc::IntWritable resp;
        co_await client.call(kAddr, kBump, arg, &resp);
        ++completed;
      } else {
        rpc::BytesWritable payload(net::Bytes(put_bytes, net::Byte{0x11}));
        rpc::BooleanWritable resp;
        co_await client.call(kAddr, kPut, payload, &resp);
        if (resp.value) ++completed;
      }
    } catch (const rpc::RpcTransportError&) {
      ++failed;
    }
    co_await sim::delay(s, sim::millis(5));
  }
}

TEST(Overload, StormIsBoundedAndByteIdenticalAcrossRuns) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    auto run_once = [mode] {
      auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
      plan->set_default_faults(
          {.drop_prob = 0.02, .spike_prob = 0.05, .spike_extra = sim::millis(1)});
      net::TestbedConfig cfg = Testbed::cluster_b();
      cfg.fault = plan;
      Scheduler s;
      Testbed tb(s, cfg);
      rpc::RpcRetryPolicy retry;
      retry.call_timeout = sim::millis(400);
      retry.max_retries = 30;
      retry.backoff_base = sim::millis(50);
      retry.non_idempotent.insert(kBump.to_string());
      retry.retry_non_idempotent_on_timeout = true;
      rpc::OverloadConfig ov;
      ov.max_call_queue = 4;
      ov.retry_cache_entries = 64;
      EngineConfig ec{.mode = mode,
                      .server_handlers = 2,
                      .server_shards = chaos_shards(),
                      .retry = retry,
                      .overload = ov};
      // Enough prealloc for three connections' recv slots (3 x recv_depth)
      // plus response buffers, so the only demand allocations left are the
      // capped rendezvous fetches of the 96 KB puts.
      ec.pool.buffers_per_class = 64;
      ec.pool.demand_alloc_cap = 4;
      RpcEngine engine(tb, ec);
      auto server = engine.make_server(tb.host(1), kAddr);
      int runs = 0;
      register_suite(*server, tb.host(1), &runs, sim::seconds(5),
                     /*bump_for=*/sim::millis(100));
      server->dispatcher().register_method(
          kEcho.protocol, "work",
          [&tb](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
            rpc::IntWritable v;
            v.read_fields(in);
            co_await sim::delay(tb.host(1).sched(), sim::millis(60));
            v.write(out);
          });
      server->start();

      // Nine concurrent bursts from three clients against two handlers and
      // a queue bound of four: shedding, expiry, and dedup all fire.
      std::vector<std::unique_ptr<rpc::RpcClient>> clients;
      int completed = 0, failed = 0, total = 0;
      for (int c = 0; c < 3; ++c) {
        clients.push_back(engine.make_client(tb.host(0)));
        for (int t = 0; t < 3; ++t) {
          s.spawn(storm_burst(s, *clients.back(), 6, 2, 96u << 10, completed, failed));
          total += 6 + 2 + 1;
        }
      }
      s.run_until(sim::seconds(300));

      // Zero unbounded growth, zero lost calls: every shed or expired call
      // was retried to completion, the queue respected its bound, and the
      // pool respected its demand cap.
      EXPECT_EQ(completed, total);
      EXPECT_EQ(failed, 0);
      EXPECT_LE(server->stats().queue_depth_peak, 4u);
      if (mode == RpcMode::kRpcoIB) {
        auto* srv = dynamic_cast<oib::RdmaRpcServer*>(server.get());
        EXPECT_LE(srv->pool().native().stats().demand_allocations, 4u);
      }
      // Non-idempotent safety under the storm: one execution per logical
      // bump call, no matter how many attempts each one took.
      EXPECT_EQ(runs, 3 * 3 * 2);

      rpc::RpcStats merged;
      for (auto& c : clients) merged.merge_resilience(c->stats());
      std::string report =
          rpc::resilience_report(merged, &plan->counters(), &server->stats());
      report += "\nbump runs " + std::to_string(runs);
      report += "\nfinished with " + std::to_string(completed) + "/" +
                std::to_string(total) + "\n";
      server->stop();
      s.drain_tasks();
      return report;
    };
    const std::string a = run_once();
    const std::string b = run_once();
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace rpcoib
