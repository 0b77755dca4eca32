// Small-message coalescing (BatchConfig): dense concurrent callers on a
// shared connection ride multi-call frames on both transports, sparse
// callers flush immediately (adaptive linger collapses to zero), the
// default-off knob leaves the seed's one-frame-per-call path untouched,
// and batched runs stay seed-deterministic. The coalescing policy itself
// (rpc::CallBatcher) is also pinned alone, against a fake sink.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/testbed.hpp"
#include "rpc/socket_client.hpp"
#include "rpcoib/engine.hpp"
#include "rpcoib/rdma_client.hpp"
#include "workloads/pingpong.hpp"

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
const rpc::MethodKey kEcho{"test.BatchProtocol", "echo"};

void register_echo(rpc::RpcServer& server) {
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method, [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::BytesWritable payload;
        payload.read_fields(in);
        rpc::BytesWritable(std::move(payload.value)).write(out);
        co_return;
      });
}

struct Fixture {
  Fixture(Scheduler& s, RpcMode mode, rpc::BatchConfig batch)
      : tb(s, Testbed::cluster_b()),
        engine(tb, EngineConfig{.mode = mode, .batch = batch}),
        server(engine.make_server(tb.host(1), kAddr)),
        client(engine.make_client(tb.host(0))) {
    register_echo(*server);
    server->start();
  }
  ~Fixture() { server->stop(); }
  Testbed tb;
  RpcEngine engine;
  std::unique_ptr<rpc::RpcServer> server;
  std::unique_ptr<rpc::RpcClient> client;
};

Task call_echo(rpc::RpcClient& client, std::size_t n, bool& ok) {
  net::Bytes payload(n);
  for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<net::Byte>(i * 7 + 3);
  rpc::BytesWritable req(payload);
  rpc::BytesWritable resp;
  co_await client.call(kAddr, kEcho, req, &resp);
  ok = (resp.value == payload);
}

rpc::BatchConfig batching_on() {
  rpc::BatchConfig b;
  b.enabled = true;
  return b;
}

class BatchingDense : public ::testing::TestWithParam<RpcMode> {};

// Twelve same-tick 64-byte calls on one shared client: the transport must
// put strictly fewer frames than calls on the wire, and every call still
// round-trips with the right payload.
TEST_P(BatchingDense, ConcurrentSmallCallsCoalesceAndRoundTrip) {
  Scheduler s;
  rpc::BatchConfig on = batching_on();
  Fixture f(s, GetParam(), on);
  constexpr int kN = 12;
  std::vector<char> oks(kN, 0);
  for (int i = 0; i < kN; ++i) {
    bool* ok = reinterpret_cast<bool*>(&oks[static_cast<std::size_t>(i)]);
    s.spawn(call_echo(*f.client, 64, *ok));
  }
  s.run_until(sim::seconds(10));
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(oks[static_cast<std::size_t>(i)]) << i;

  const rpc::RpcStats& cs = f.client->stats();
  EXPECT_EQ(cs.batched_calls, static_cast<std::uint64_t>(kN));
  EXPECT_GT(cs.batches_sent, 0u);
  EXPECT_LT(cs.batches_sent, static_cast<std::uint64_t>(kN));  // actually coalesced

  const rpc::RpcStats& ss = f.server->stats();
  EXPECT_GT(ss.batches_received, 0u);
  EXPECT_EQ(ss.batched_calls_received, static_cast<std::uint64_t>(kN));
  f.server->stop();
  s.drain_tasks();
}

INSTANTIATE_TEST_SUITE_P(Transports, BatchingDense,
                         ::testing::Values(RpcMode::kSocketIPoIB, RpcMode::kRpcoIB));

class BatchingDisabled : public ::testing::TestWithParam<RpcMode> {};

// The knob is off by default: no batch frames in either direction, even
// under the densest load — the seed wire format is preserved.
TEST_P(BatchingDisabled, DefaultKnobSendsOneFramePerCall) {
  Scheduler s;
  Fixture f(s, GetParam(), rpc::BatchConfig{});
  constexpr int kN = 12;
  std::vector<char> oks(kN, 0);
  for (int i = 0; i < kN; ++i) {
    bool* ok = reinterpret_cast<bool*>(&oks[static_cast<std::size_t>(i)]);
    s.spawn(call_echo(*f.client, 64, *ok));
  }
  s.run_until(sim::seconds(10));
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(oks[static_cast<std::size_t>(i)]) << i;

  EXPECT_EQ(f.client->stats().batches_sent, 0u);
  EXPECT_EQ(f.client->stats().batched_calls, 0u);
  EXPECT_EQ(f.server->stats().batches_received, 0u);
  EXPECT_EQ(f.server->stats().response_batches, 0u);
  f.server->stop();
  s.drain_tasks();
}

INSTANTIATE_TEST_SUITE_P(Transports, BatchingDisabled,
                         ::testing::Values(RpcMode::kSocketIPoIB, RpcMode::kRpcoIB));

Task sparse_caller(Scheduler& s, rpc::RpcClient& client, int rounds, int& ok_count) {
  net::Bytes payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<net::Byte>(i * 7 + 3);
  }
  rpc::BytesWritable req(payload);
  for (int i = 0; i < rounds; ++i) {
    rpc::BytesWritable resp;
    co_await client.call(kAddr, kEcho, req, &resp);
    if (resp.value == payload) ++ok_count;
    co_await sim::delay(s, sim::millis(1));
  }
}

// A single caller with 1 ms gaps between calls: the EWMA of inter-append
// gaps sits far above the configured linger, so the adaptive linger
// collapses to zero and every call flushes immediately — sparse traffic
// pays no added latency for the batching knob being on.
TEST(Batching, SparseCallsFlushImmediatelyUnderAdaptiveLinger) {
  Scheduler s;
  rpc::BatchConfig on = batching_on();
  Fixture f(s, RpcMode::kSocketIPoIB, on);
  int ok_count = 0;
  constexpr int kRounds = 6;
  s.spawn(sparse_caller(s, *f.client, kRounds, ok_count));
  s.run_until(sim::seconds(10));
  EXPECT_EQ(ok_count, kRounds);

  const rpc::RpcStats& cs = f.client->stats();
  EXPECT_EQ(cs.batched_calls, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(cs.batches_sent, static_cast<std::uint64_t>(kRounds));  // one call per frame
  EXPECT_EQ(cs.batch_flush_linger, 0u);
  EXPECT_EQ(cs.batch_flush_immediate, static_cast<std::uint64_t>(kRounds));
  f.server->stop();
  s.drain_tasks();
}

// Same seed, same knobs => identical throughput and identical batch
// counters, batching on or off, on both transports.
TEST(Batching, BatchedRunsAreSeedDeterministic) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    for (bool enabled : {false, true}) {
      rpc::BatchConfig b;
      b.enabled = enabled;
      const double a =
          workloads::run_shared_throughput(mode, b, /*callers=*/8, /*shared_clients=*/2,
                                           /*payload=*/64, /*duration_ms=*/20, /*seed=*/7);
      const double c =
          workloads::run_shared_throughput(mode, b, /*callers=*/8, /*shared_clients=*/2,
                                           /*payload=*/64, /*duration_ms=*/20, /*seed=*/7);
      EXPECT_EQ(a, c) << oib::rpc_mode_name(mode) << " enabled=" << enabled;
      EXPECT_GT(a, 0.0);
    }
  }
}

// Coalescing must win throughput in the many-callers-per-connection
// regime it was built for (the bench_fig5_batched gate, in miniature).
TEST(Batching, SharedConnectionThroughputImprovesWhenBatched) {
  const double plain = workloads::run_shared_throughput(
      RpcMode::kSocketIPoIB, rpc::BatchConfig{}, 16, 2, 64, /*duration_ms=*/40);
  rpc::BatchConfig on = batching_on();
  const double batched = workloads::run_shared_throughput(
      RpcMode::kSocketIPoIB, on, 16, 2, 64, /*duration_ms=*/40);
  EXPECT_GT(batched, plain * 1.4);
}

// --- The coalescing policy alone (rpc::CallBatcher against a fake sink) ---

struct FlushRecord {
  rpc::FlushReason why;
  std::size_t items;
  sim::Time at;
};

struct FakeSite {
  FakeSite(Scheduler& s, rpc::BatchConfig cfg) : sched(s), batcher(s, cfg) {}
  Scheduler& sched;
  rpc::CallBatcher batcher;
  bool open = true;
  bool close_on_flush = false;
  int appended = 0;
  std::vector<FlushRecord> flushes;
};

struct FakeSink {
  FakeSite* site;
  rpc::CallBatcher* batcher() { return site->open ? &site->batcher : nullptr; }
  void appended() { ++site->appended; }
  Co<bool> flush(rpc::CallBatcher& b, rpc::FlushReason why) {
    site->flushes.push_back({why, b.take().items.size(), site->sched.now()});
    if (site->close_on_flush) site->open = false;
    co_return site->open;
  }
};

/// Add one `n`-byte message at virtual time `at`.
Task add_at(FakeSite& site, sim::Time at, std::size_t n, rpc::CoalesceLimits limits) {
  co_await sim::delay(site.sched, at - site.sched.now());
  FakeSink sink{&site};
  net::Bytes msg(n);
  co_await site.batcher.add(sink, std::move(msg), trace::TraceContext{}, limits);
}

rpc::BatchConfig coalesce_cfg() {
  rpc::BatchConfig cfg;
  cfg.enabled = true;
  cfg.max_bytes = 1000;
  cfg.max_calls = 4;
  cfg.linger = sim::micros(40);
  return cfg;
}

TEST(Coalescer, OverflowPreFlushesTheOpenBatchAndCountsItFull) {
  Scheduler s;
  FakeSite site(s, coalesce_cfg());
  const rpc::CoalesceLimits clamp{600};
  s.spawn(add_at(site, sim::micros(1), 400, clamp));
  s.spawn(add_at(site, sim::micros(1), 400, clamp));  // 800 > 600: pre-flush
  s.run();
  ASSERT_EQ(site.flushes.size(), 2u);
  EXPECT_EQ(site.flushes[0].why, rpc::FlushReason::kFull);
  EXPECT_EQ(site.flushes[0].items, 1u);
  // The second message opened a new batch; its zero linger flushed it on
  // the next tick, and the first batch's timer stood down by epoch.
  EXPECT_EQ(site.flushes[1].why, rpc::FlushReason::kImmediate);
  EXPECT_EQ(site.flushes[1].items, 1u);
  EXPECT_EQ(site.appended, 2);
}

TEST(Coalescer, ClosedSiteDropsTheMessageAfterItsPreFlush) {
  Scheduler s;
  FakeSite site(s, coalesce_cfg());
  site.close_on_flush = true;
  const rpc::CoalesceLimits clamp{600};
  s.spawn(add_at(site, sim::micros(1), 400, clamp));
  s.spawn(add_at(site, sim::micros(1), 400, clamp));
  s.run();
  ASSERT_EQ(site.flushes.size(), 1u);  // the timer found the site gone
  EXPECT_EQ(site.flushes[0].why, rpc::FlushReason::kFull);
  EXPECT_EQ(site.appended, 1);
  EXPECT_TRUE(site.batcher.empty());
}

TEST(Coalescer, UnclampedLimitNeverPreFlushes) {
  // The socket rule: no frame clamp, so the message that crosses
  // max_bytes joins the batch and the full batch flushes after it.
  Scheduler s;
  FakeSite site(s, coalesce_cfg());
  s.spawn(add_at(site, sim::micros(1), 600, {}));
  s.spawn(add_at(site, sim::micros(1), 600, {}));
  s.run();
  ASSERT_EQ(site.flushes.size(), 1u);
  EXPECT_EQ(site.flushes[0].why, rpc::FlushReason::kFull);
  EXPECT_EQ(site.flushes[0].items, 2u);
}

TEST(Coalescer, FullFlushMakesTheArmedLingerTimerStandDown) {
  Scheduler s;
  FakeSite site(s, coalesce_cfg());
  // A lone first arrival flushes on the next tick; from the second on the
  // arrivals are 1 us apart, so the batch they open arms the full 40 us
  // linger — and fills (max_calls = 4) long before it expires.
  for (int i = 1; i <= 5; ++i) s.spawn(add_at(site, sim::micros(i), 64, {}));
  s.run();
  ASSERT_EQ(site.flushes.size(), 2u);
  EXPECT_EQ(site.flushes[0].why, rpc::FlushReason::kImmediate);
  EXPECT_EQ(site.flushes[0].items, 1u);
  EXPECT_EQ(site.flushes[1].why, rpc::FlushReason::kFull);
  EXPECT_EQ(site.flushes[1].items, 4u);
  EXPECT_EQ(site.flushes[1].at, sim::micros(5));
  // The timer armed at 2 us woke at 42 us and found its epoch flushed.
  EXPECT_EQ(s.now(), sim::micros(42));
}

TEST(Coalescer, SameTickArrivalsShareOneZeroLingerFlush) {
  Scheduler s;
  FakeSite site(s, coalesce_cfg());
  for (int i = 0; i < 3; ++i) s.spawn(add_at(site, sim::micros(1), 64, {}));
  s.run();
  ASSERT_EQ(site.flushes.size(), 1u);
  EXPECT_EQ(site.flushes[0].why, rpc::FlushReason::kImmediate);
  EXPECT_EQ(site.flushes[0].items, 3u);
  EXPECT_EQ(site.flushes[0].at, sim::micros(1));
}

TEST(Coalescer, ServerLingerIsCappedAtAQuarter) {
  for (const bool server : {false, true}) {
    SCOPED_TRACE(server ? "server" : "client");
    Scheduler s;
    const rpc::BatchConfig cfg = coalesce_cfg();
    FakeSite site(s, cfg);
    rpc::CoalesceLimits limits;
    if (server) limits.linger_cap = cfg.linger / 4;
    // The second arrival (1 us after the first) arms a lingering timer.
    s.spawn(add_at(site, sim::micros(1), 64, limits));
    s.spawn(add_at(site, sim::micros(2), 64, limits));
    s.run();
    ASSERT_EQ(site.flushes.size(), 2u);
    EXPECT_EQ(site.flushes[1].why, rpc::FlushReason::kLinger);
    EXPECT_EQ(site.flushes[1].at, sim::micros(2) + (server ? cfg.linger / 4 : cfg.linger));
  }
}

// --- Teardown and per-sub-call deadline semantics ---------------------------

void close_client(rpc::RpcClient& c) {
  if (auto* r = dynamic_cast<oib::RdmaRpcClient*>(&c)) {
    r->close_connections();
  } else if (auto* sc = dynamic_cast<rpc::SocketRpcClient*>(&c)) {
    sc->close_connections();
  }
}

// 0 = pending, 1 = ok, 2 = transport error, 3 = timeout.
Task tracked_echo(rpc::RpcClient& c, int& outcome) {
  net::Bytes payload(64, net::Byte{0x44});
  rpc::BytesWritable req(payload);
  rpc::BytesWritable resp;
  try {
    co_await c.call(kAddr, kEcho, req, &resp);
    outcome = 1;
  } catch (const rpc::RpcTimeoutError&) {
    outcome = 3;
  } catch (const rpc::RpcTransportError&) {
    outcome = 2;
  }
}

// A sub-threshold call parked under the linger when the client closes must
// surface a transport error to its caller — not hang on a batch frame that
// will never flush, and not vanish silently.
TEST(BatchingTeardown, CloseBeforeLingerFailsParkedCallInsteadOfLosingIt) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    rpc::BatchConfig b;
    b.enabled = true;
    b.linger = sim::seconds(10);
    Fixture f(s, mode, b);

    // One completed call seeds the batcher's inter-arrival EWMA (its own
    // append flushes immediately: the EWMA is still empty).
    int first = 0;
    s.spawn(tracked_echo(*f.client, first));
    s.run_until(sim::millis(100));
    ASSERT_EQ(first, 1);

    // The next call appends 100 ms after the first — well inside the 10 s
    // linger, so the estimator says company is coming and it parks...
    int victim = 0;
    s.spawn(tracked_echo(*f.client, victim));
    s.run_until(sim::millis(110));
    EXPECT_EQ(victim, 0);  // parked, not yet on the wire

    // ...and the client closes first. The parked call must surface a
    // transport error, not hang on a frame that will never flush.
    close_client(*f.client);
    s.run_until(sim::seconds(20));
    EXPECT_EQ(victim, 2);
    // The parked call never reached the server; the first one did.
    EXPECT_EQ(f.server->stats().batched_calls_received, 1u);
    f.server->stop();
    s.drain_tasks();
  }
}

const rpc::MethodKey kSlowPut{"test.BatchProtocol", "slowPut"};

Task slow_put(rpc::RpcClient& c, int& outcome) {
  rpc::BytesWritable req(net::Bytes(2048, net::Byte{0x22}));
  rpc::BooleanWritable resp;
  try {
    co_await c.call(kAddr, kSlowPut, req, &resp);
    outcome = resp.value ? 1 : 2;
  } catch (const rpc::RpcTransportError&) {
    outcome = 2;
  }
}

// Responses parked in the server's coalescing linger when stop() lands are
// dropped with accounting, not leaked or silently discarded.
TEST(BatchingTeardown, ServerStopAccountsResponsesParkedInLinger) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::BatchConfig b;
    b.enabled = true;
    b.linger = sim::seconds(10);  // responders cap theirs at linger/4 = 2.5 s
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_handlers = 1, .batch = b});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_echo(*server);
    server->dispatcher().register_method(
        kSlowPut.protocol, kSlowPut.method,
        [&tb](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
          rpc::BytesWritable v;
          v.read_fields(in);
          co_await sim::delay(tb.sched(), sim::millis(100));
          rpc::BooleanWritable(true).write(out);
        });
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    // 2 KB requests sit above small_threshold (own frames: the client
    // never parks them), but the bool responses are tiny: the single
    // handler's 100 ms cadence keeps the server's response linger armed,
    // so responses accumulate in the coalescing window.
    constexpr int kN = 12;
    std::vector<int> outcomes(kN, 0);
    for (int& o : outcomes) s.spawn(slow_put(*client, o));
    s.run_until(sim::seconds(2));
    server->stop();
    EXPECT_GE(server->stats().responses_dropped_on_stop, 1u);
    close_client(*client);
    s.run_until(sim::seconds(20));
    int delivered = 0;
    for (int o : outcomes) {
      EXPECT_NE(o, 0);  // nothing hangs
      if (o == 1) ++delivered;
    }
    // The first response flushed before the linger armed.
    EXPECT_GE(delivered, 1);
    s.drain_tasks();
  }
}

const rpc::MethodKey kBlock{"test.BatchProtocol", "block"};

Task block_call(rpc::RpcClient& c, int& outcome) {
  rpc::BytesWritable req(net::Bytes(2048, net::Byte{0x33}));
  rpc::BooleanWritable resp;
  try {
    co_await c.call(kAddr, kBlock, req, &resp);
    outcome = 1;
  } catch (const rpc::RpcTransportError&) {
    outcome = 2;
  }
}

Task expiry_orchestrator(Scheduler& s, rpc::RpcClient& client, int& blocked, int& x, int& y,
                         std::vector<char>& warm) {
  // Occupy the single handler for seconds with a large-arg call (2 KB is
  // above small_threshold, so it rides its own frame immediately).
  s.spawn(block_call(client, blocked));
  co_await sim::delay(s, sim::millis(50));
  // Two quick small calls warm the batcher's inter-arrival EWMA; they
  // queue behind the blocker and finish late (no deadline on them).
  for (int i = 0; i < 2; ++i) {
    bool* ok = reinterpret_cast<bool*>(&warm[static_cast<std::size_t>(i)]);
    s.spawn(call_echo(client, 64, *ok));
    co_await sim::delay(s, sim::micros(5));
  }
  co_await sim::delay(s, sim::millis(7));  // past the 5 ms linger: warm flushed
  // X carries a 1 s deadline; the warm EWMA parks it under the linger.
  rpc::RpcRetryPolicy deadline;
  deadline.call_timeout = sim::seconds(1);
  client.set_retry_policy(deadline);
  s.spawn(tracked_echo(client, x));
  co_await sim::delay(s, sim::millis(1));
  // Y has no deadline and completes the pair: max_calls=2 flushes X and Y
  // as one batch frame.
  client.set_retry_policy({});
  s.spawn(tracked_echo(client, y));
}

// Deadlines are per sub-call, not per batch frame: a frame carrying one
// expired and one live call drops only the expired one at dequeue.
TEST(BatchingTeardown, ExpiredSubCallInsideBatchFrameIsDroppedIndividually) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::BatchConfig b;
    b.enabled = true;
    b.linger = sim::millis(5);
    b.max_calls = 2;
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_handlers = 1, .batch = b});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_echo(*server);
    server->dispatcher().register_method(
        kBlock.protocol, kBlock.method,
        [&tb](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
          rpc::BytesWritable v;
          v.read_fields(in);
          co_await sim::delay(tb.sched(), sim::seconds(3));
          rpc::BooleanWritable(true).write(out);
        });
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    int blocked = 0, x = 0, y = 0;
    std::vector<char> warm(2, 0);
    s.spawn(expiry_orchestrator(s, *client, blocked, x, y, warm));
    s.run_until(sim::seconds(30));

    EXPECT_EQ(blocked, 1);
    for (int i = 0; i < 2; ++i) EXPECT_TRUE(warm[static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(x, 3);  // timed out client-side, expired server-side
    EXPECT_EQ(y, 1);  // same frame, no deadline: executed normally
    EXPECT_EQ(server->stats().calls_expired, 1u);
    EXPECT_GE(server->stats().batched_calls_received, 4u);
    EXPECT_EQ(client->stats().timeouts, 1u);
    server->stop();
    s.drain_tasks();
  }
}

}  // namespace
}  // namespace rpcoib
