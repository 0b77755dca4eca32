// The transport-independent server call pipeline (rpc/pipeline.hpp): the
// admission gate, the dequeue screen's verdicts and their counters, and the
// outcome record — driven with a minimal fake call, no transport at all.
// The call header both clients write (write_call_head) against the reader
// the servers share (read_call_head).
// Plus the restart path both servers share: back-to-back stop()/start()
// with handlers parked must neither touch a destroyed run's queues nor
// break the next call.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpc/pipeline.hpp"
#include "rpc/socket_client.hpp"
#include "rpc/socket_server.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"

namespace rpcoib {
namespace {

using rpc::CallHead;
using rpc::Outcome;
using rpc::Verdict;
using sim::Co;
using sim::Scheduler;
using sim::Task;

struct FakeCall {
  int tag = 0;
  std::string protocol = "test.FakeProtocol";
  sim::Time enqueued = 0;
  const std::string& admission_protocol() const { return protocol; }
};

using FakeShard = rpc::ServerShard<FakeCall>;

constexpr std::uint64_t kSession = (1ULL << 63) | 7;

rpc::OverloadConfig cache_cfg() {
  rpc::OverloadConfig cfg;
  cfg.retry_cache_entries = 16;
  return cfg;
}

rpc::SessionConfig session_cfg() {
  rpc::SessionConfig cfg;
  cfg.enabled = true;
  cfg.lease = sim::seconds(10);
  return cfg;
}

CallHead head(std::uint64_t id, bool retried = false, sim::Time deadline = 0) {
  CallHead h;
  h.id = id;
  h.retried = retried;
  h.deadline = deadline;
  h.key = rpc::MethodKey{"test.FakeProtocol", "op"};
  h.session_id = kSession;
  h.owner = kSession;
  return h;
}

Verdict screen_at(FakeShard& shard, const CallHead& h, sim::Time now) {
  return shard.screen(h, 0, now, now, nullptr).verdict;
}

// --- The dequeue screen -----------------------------------------------------

TEST(Pipeline, FreshCallExecutes) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), {}, rpc::SessionTouch::kAtArrival);
  CallHead h = head(1);
  h.session_id = 0;
  EXPECT_EQ(screen_at(shard, h, 0), Verdict::kExecute);
  const rpc::RpcStats& st = shard.pipeline.stats();
  EXPECT_EQ(st.calls_expired + st.sessions_rejected + st.dedup_hits + st.dedup_in_flight, 0u);
}

TEST(Pipeline, PassedDeadlineExpiresAndCountsADrop) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), {}, rpc::SessionTouch::kAtArrival);
  EXPECT_EQ(screen_at(shard, head(1, false, sim::millis(5)), sim::millis(4)), Verdict::kExecute);
  EXPECT_EQ(screen_at(shard, head(2, false, sim::millis(5)), sim::millis(5)), Verdict::kExpired);
  EXPECT_EQ(shard.pipeline.stats().calls_expired, 1u);
  EXPECT_EQ(shard.pipeline.counters().dropped, 1u);
}

TEST(Pipeline, ExpiredRetryCountsAsExpiredNotSessionRejected) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), session_cfg(), rpc::SessionTouch::kAtArrival);
  // The session is unknown, so the retry would be refused — but the
  // deadline check comes first.
  EXPECT_EQ(screen_at(shard, head(3, true, sim::millis(1)), sim::millis(2)), Verdict::kExpired);
  EXPECT_EQ(shard.pipeline.stats().calls_expired, 1u);
  EXPECT_EQ(shard.pipeline.stats().sessions_rejected, 0u);
}

TEST(Pipeline, RetryOnUnknownSessionIsRejected) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), session_cfg(), rpc::SessionTouch::kAtArrival);
  EXPECT_EQ(screen_at(shard, head(3, true), 0), Verdict::kSessionRejected);
  EXPECT_EQ(shard.pipeline.stats().sessions_rejected, 1u);
}

TEST(Pipeline, RetryBelowTheFenceThatMissesTheCacheIsRejected) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), session_cfg(), rpc::SessionTouch::kAtArrival);
  // A fresh call 10 (re-)opens the session: 10 becomes its fence.
  shard.touch_session(kSession, /*retried=*/false, /*call_id=*/10, 0);
  EXPECT_EQ(shard.pipeline.stats().sessions_opened, 1u);
  EXPECT_EQ(screen_at(shard, head(5, true), 0), Verdict::kSessionRejected);
  EXPECT_EQ(shard.pipeline.stats().sessions_rejected, 1u);
  // At or above the fence a cache miss proves nothing was lost.
  EXPECT_EQ(screen_at(shard, head(12, true), 0), Verdict::kExecute);
  EXPECT_EQ(shard.pipeline.stats().sessions_rejected, 1u);
}

TEST(Pipeline, CompletedEntryReplaysItsExactBytes) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), session_cfg(), rpc::SessionTouch::kAtArrival);
  shard.touch_session(kSession, false, 1, 0);
  const CallHead h = head(1);
  ASSERT_EQ(screen_at(shard, h, 0), Verdict::kExecute);
  const net::Bytes frame{net::Byte{0xCA}, net::Byte{0xFE}, net::Byte{0x01}};
  EXPECT_TRUE(shard.record(h, Outcome::kAnswered, frame, 0, nullptr));

  const rpc::Screen again = shard.screen(head(1, true), 0, 0, 0, nullptr);
  ASSERT_EQ(again.verdict, Verdict::kReplay);
  ASSERT_NE(again.replay, nullptr);
  EXPECT_EQ(*again.replay, frame);
  EXPECT_EQ(shard.pipeline.stats().dedup_hits, 1u);
}

TEST(Pipeline, InFlightDuplicateIsDropped) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), {}, rpc::SessionTouch::kAtArrival);
  CallHead h = head(2);
  h.session_id = 0;
  h.owner = 42;  // sessionless: keyed by the connection id
  ASSERT_EQ(screen_at(shard, h, 0), Verdict::kExecute);
  EXPECT_EQ(screen_at(shard, h, 0), Verdict::kInFlight);
  EXPECT_EQ(shard.pipeline.stats().dedup_in_flight, 1u);
}

TEST(Pipeline, PoolBusyOutcomeForgetsTheEntry) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), {}, rpc::SessionTouch::kAtArrival);
  CallHead h = head(3);
  h.session_id = 0;
  ASSERT_EQ(screen_at(shard, h, 0), Verdict::kExecute);
  EXPECT_TRUE(shard.record(h, Outcome::kPoolBusy, {}, 0, nullptr));
  EXPECT_EQ(shard.pipeline.stats().calls_shed, 1u);
  EXPECT_EQ(shard.pipeline.counters().dropped, 1u);
  // The retry executes fresh instead of being swallowed as in-flight.
  EXPECT_EQ(screen_at(shard, h, 0), Verdict::kExecute);
  EXPECT_EQ(shard.pipeline.stats().dedup_in_flight, 0u);
}

TEST(Pipeline, LateResponseIsRecordedButNotSent) {
  Scheduler s;
  FakeShard shard(s, 0, 0, cache_cfg(), {}, rpc::SessionTouch::kAtArrival);
  CallHead h = head(4, false, sim::millis(5));
  h.session_id = 0;
  ASSERT_EQ(screen_at(shard, h, 0), Verdict::kExecute);
  const net::Bytes frame{net::Byte{0x04}};
  EXPECT_FALSE(shard.record(h, Outcome::kAnswered, frame, sim::millis(6), nullptr));
  EXPECT_EQ(shard.pipeline.stats().responses_expired, 1u);
  EXPECT_EQ(shard.pipeline.counters().dropped, 0u);  // it executed
  // The executed outcome still answers the retry already on its way.
  h.deadline = 0;
  EXPECT_EQ(screen_at(shard, h, sim::millis(7)), Verdict::kReplay);
}

TEST(Pipeline, DequeueTouchOpensTheSessionBeforeTheFenceCheck) {
  Scheduler s;
  FakeShard at_dequeue(s, 0, 0, cache_cfg(), session_cfg(), rpc::SessionTouch::kAtDequeue);
  EXPECT_EQ(screen_at(at_dequeue, head(1), 0), Verdict::kExecute);
  EXPECT_EQ(at_dequeue.pipeline.stats().sessions_opened, 1u);
  EXPECT_TRUE(at_dequeue.sessions.alive(kSession, 0));

  FakeShard at_arrival(s, 0, 0, cache_cfg(), session_cfg(), rpc::SessionTouch::kAtArrival);
  EXPECT_EQ(screen_at(at_arrival, head(1), 0), Verdict::kExecute);
  EXPECT_EQ(at_arrival.pipeline.stats().sessions_opened, 0u);
}

// --- The admission gate -----------------------------------------------------

Co<void> note_busy(std::vector<int>& shed, FakeCall call) {
  shed.push_back(call.tag);
  co_return;
}

Task admit_one(rpc::CallPipeline<FakeCall>& pipeline, int tag, std::vector<int>& shed) {
  FakeCall call;
  call.tag = tag;
  Co<void> admitted = pipeline.admit(
      std::move(call), [&shed](FakeCall busy) { return note_busy(shed, std::move(busy)); });
  co_await admitted;
}

TEST(Pipeline, GateShedsTheArrivalAtTheBound) {
  Scheduler s;
  rpc::OverloadConfig cfg;
  cfg.max_call_queue = 1;
  rpc::CallPipeline<FakeCall> pipeline(s, cfg);
  std::vector<int> shed;
  s.spawn(admit_one(pipeline, 1, shed));
  s.spawn(admit_one(pipeline, 2, shed));
  s.run_until(sim::seconds(1));
  EXPECT_EQ(shed, std::vector<int>{2});
  ASSERT_EQ(pipeline.queue().size(), 1u);
  EXPECT_EQ(pipeline.counters().dispatched, 1u);
  EXPECT_EQ(pipeline.stats().queue_depth_peak, 1u);
}

TEST(Pipeline, GateEvictsTheOldestUnderRejectOldest) {
  Scheduler s;
  rpc::OverloadConfig cfg;
  cfg.max_call_queue = 1;
  cfg.policy = rpc::AdmissionPolicy::kRejectOldest;
  rpc::CallPipeline<FakeCall> pipeline(s, cfg);
  std::vector<int> shed;
  s.spawn(admit_one(pipeline, 1, shed));
  s.spawn(admit_one(pipeline, 2, shed));
  s.run_until(sim::seconds(1));
  EXPECT_EQ(shed, std::vector<int>{1});
  FakeCall left;
  ASSERT_TRUE(pipeline.queue().try_recv(left));
  EXPECT_EQ(left.tag, 2);
  EXPECT_EQ(pipeline.counters().dispatched, 2u);
}

// --- The call header ---------------------------------------------------------

// Every trace/deadline/retry combination round-trips through
// write_call_head -> read_call_head, writes the flagged layout word by word,
// and accrues exactly the cost of those primitive writes on the same kind
// of stream (including a DataOutputBuffer's Algorithm-1 growth).
template <typename MakeStream>
void check_call_head_round_trip(const cluster::CostModel& cm, MakeStream make) {
  const rpc::MethodKey key{"test.HeadProtocol", "getBlockLocations"};
  constexpr std::uint64_t kId = 0x1234;
  for (int combo = 0; combo < 8; ++combo) {
    const bool traced = (combo & 1) != 0;
    const bool with_deadline = (combo & 2) != 0;
    const bool retried = (combo & 4) != 0;
    SCOPED_TRACE("traced=" + std::to_string(traced) +
                 " deadline=" + std::to_string(with_deadline) +
                 " retried=" + std::to_string(retried));
    const trace::TraceContext ctx =
        traced ? trace::TraceContext{0xABCDEF, 0x42} : trace::TraceContext{};
    const sim::Time deadline = with_deadline ? sim::millis(250) : 0;

    auto out = make();
    out->take_accrued();  // construction cost is not the header's
    rpc::write_call_head(*out, kId, ctx, deadline, retried, key);

    // The same header as individual primitive writes.
    auto ref = make();
    ref->take_accrued();
    std::uint64_t wire_id = kId;
    if (traced) wire_id |= trace::kWireTraceFlag;
    if (with_deadline) wire_id |= trace::kWireDeadlineFlag;
    if (retried) wire_id |= trace::kWireRetryFlag;
    ref->write_u64(wire_id);
    if (traced) {
      ref->write_u64(ctx.trace_id);
      ref->write_u64(ctx.span_id);
    }
    if (with_deadline) ref->write_u64(deadline);
    ref->write_text(key.protocol);
    ref->write_text(key.method);

    const net::ByteSpan bytes = out->data();
    const net::ByteSpan ref_bytes = ref->data();
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), ref_bytes.begin(), ref_bytes.end()));
    EXPECT_EQ(out->take_accrued(), ref->take_accrued());

    rpc::DataInputBuffer in(cm, bytes);
    const CallHead h = rpc::read_call_head(in);
    EXPECT_EQ(in.remaining(), 0u);
    EXPECT_EQ(h.id, kId);
    EXPECT_EQ(h.ctx, ctx);
    EXPECT_EQ(h.deadline, deadline);
    EXPECT_EQ(h.retried, retried);
    EXPECT_EQ(h.key, key);
  }
}

TEST(CallHead, RoundTripsEveryFlagCombinationOnADataOutputBuffer) {
  const cluster::CostModel cm;
  check_call_head_round_trip(cm, [&] { return std::make_unique<rpc::DataOutputBuffer>(cm); });
}

TEST(CallHead, RoundTripsEveryFlagCombinationOnAnRdmaOutputStream) {
  Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());
  oib::NativeBufferPool pool(tb.host(0), stack, oib::PoolConfig{});
  oib::ShadowPool shadow(pool);
  const cluster::CostModel& cm = tb.host(0).cost();
  const rpc::MethodKey stream_key{"test.HeadProtocol", "stream"};
  check_call_head_round_trip(cm, [&] {
    return std::make_unique<oib::RDMAOutputStream>(cm, shadow, stream_key);
  });
}

// --- Restart with parked handlers -------------------------------------------

constexpr net::Address kAddr{1, 9700};
const rpc::MethodKey kEcho{"test.RestartProtocol", "echo"};

void register_echo(rpc::RpcServer& server) {
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method, [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::IntWritable v;
        v.read_fields(in);
        v.write(out);
        co_return;
      });
}

Task echo_task(rpc::RpcClient& client, net::Address addr, int& got) {
  rpc::IntWritable param(41), resp;
  co_await client.call(addr, kEcho, param, &resp);
  got = resp.value;
}

// stop() closes the call queues, which only *posts* the parked handlers'
// wakes; a start() right behind it must not free the queues those wakes
// still dereference.
TEST(Restart, SocketServerBackToBackStopStartWithParkedHandlers) {
  Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  rpc::SocketRpcServer server(tb.host(1), tb.sockets(), kAddr, 4, 1, 2);
  register_echo(server);
  server.start();
  s.run_until(sim::millis(1));  // every handler parks on its shard queue
  server.stop();
  server.start();
  rpc::SocketRpcClient client(tb.host(0), tb.sockets(), net::Transport::kIPoIB);
  int got = 0;
  s.spawn(echo_task(client, kAddr, got));
  s.run_until(sim::seconds(10));
  EXPECT_EQ(got, 41);
  client.close_connections();
  server.stop();
  s.drain_tasks();
}

/// Restart an RPCoIB server (two shards, socket fallback on) after running
/// the scheduler for `park`, then check one call over RDMA and one over the
/// companion socket listener.
void restart_rdma_server_then_call(sim::Dur park) {
  Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());
  oib::RdmaServerConfig cfg;
  cfg.shards = 2;
  ASSERT_TRUE(cfg.socket_fallback);
  oib::RdmaRpcServer server(tb.host(1), tb.sockets(), stack, kAddr, cfg);
  register_echo(server);
  server.start();
  s.run_until(park);
  server.stop();
  server.start();
  oib::RdmaRpcClient client(tb.host(0), tb.sockets(), stack);
  rpc::SocketRpcClient fallback_client(tb.host(2), tb.sockets(), net::Transport::kIPoIB);
  const net::Address fallback_addr{
      kAddr.host, static_cast<std::uint16_t>(kAddr.port + oib::kSocketFallbackPortOffset)};
  int got = 0, got_fallback = 0;
  s.spawn(echo_task(client, kAddr, got));
  s.spawn(echo_task(fallback_client, fallback_addr, got_fallback));
  s.run_until(park + sim::seconds(10));
  EXPECT_EQ(got, 41);
  EXPECT_EQ(got_fallback, 41);  // the restarted companion listener serves
  client.close_connections();
  fallback_client.close_connections();
  server.stop();
  s.drain_tasks();
}

// The pool is registered and every RDMA and fallback handler is parked.
TEST(Restart, RdmaServerWithFallbackBackToBackStopStart) {
  restart_rdma_server_then_call(sim::seconds(1));
}

// stop() lands while the Listener is still registering the buffer pool, so
// no acceptor is parked on the listener it frees.
TEST(Restart, RdmaServerStoppedDuringPoolRegistration) {
  restart_rdma_server_then_call(sim::millis(1));
}

}  // namespace
}  // namespace rpcoib
