// Tracing subsystem tests: deterministic export (same seed => byte-identical
// chrome://tracing JSON), trace-context propagation across nested RPCs on
// both transports, critical-path attribution closure, and the bounded
// per-method size-sequence satellite.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "net/testbed.hpp"
#include "rpc/stats.hpp"
#include "rpcoib/engine.hpp"
#include "trace/chrome_export.hpp"
#include "trace/critical_path.hpp"
#include "trace/trace.hpp"
#include "workloads/hadoop_jobs.hpp"
#include "workloads/pingpong.hpp"

namespace rpcoib::trace {
namespace {

using net::Address;
using net::Testbed;
using oib::EngineConfig;
using oib::RpcEngine;
using oib::RpcMode;
using sim::Co;
using sim::Scheduler;
using sim::Task;

std::string export_json(const TraceCollector& col) {
  std::ostringstream os;
  write_chrome_trace(os, col);
  return os.str();
}

const Span* find_span(const TraceCollector& col, const std::string& name) {
  for (const Span& s : col.spans()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Determinism: the same seed must produce a byte-identical exported trace.

TEST(TraceDeterminism, PingPongExportIsByteIdentical) {
  std::string runs[2];
  for (std::string& out : runs) {
    TraceCollector col;
    col.set_enabled(true);
    workloads::run_latency(RpcMode::kRpcoIB, {1, 256, 4096}, 2, 8, 1, &col);
    out = export_json(col);
  }
  ASSERT_FALSE(runs[0].empty());
  EXPECT_NE(runs[0].find("rpc:pingpong"), std::string::npos);
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(TraceDeterminism, MiniSortExportIsByteIdentical) {
  std::string runs[2];
  for (std::string& out : runs) {
    TraceCollector col;
    col.set_enabled(true);
    workloads::run_randomwriter_sort(RpcMode::kRpcoIB, 2, 256ULL << 20, 7, &col);
    out = export_json(col);
  }
  ASSERT_FALSE(runs[0].empty());
  EXPECT_NE(runs[0].find("job:sort"), std::string::npos);
  EXPECT_NE(runs[0].find("task:map:"), std::string::npos);
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(TraceDeterminism, DisabledCollectorRecordsNothing) {
  TraceCollector col;
  col.set_enabled(false);
  workloads::run_latency(RpcMode::kSocketIPoIB, {64}, 1, 4, 1, &col);
  EXPECT_TRUE(col.spans().empty());
}

// ---------------------------------------------------------------------------
// Context propagation: a handler's downstream RPC must parent under the
// handler span, which parents under the inbound client span — one tree
// spanning three simulated hosts.

constexpr Address kFrontAddr{1, 9200};
constexpr Address kBackAddr{2, 9201};
const rpc::MethodKey kFwd{"test.ChainProtocol", "forward"};
const rpc::MethodKey kEcho{"test.ChainProtocol", "echo"};

struct ChainFixture {
  ChainFixture(Scheduler& s, RpcMode mode)
      : tb(s, Testbed::cluster_a(3)), engine(tb, EngineConfig{.mode = mode}) {
    col.set_enabled(true);
    tb.set_tracer(&col);
    back = engine.make_server(tb.host(2), kBackAddr);
    back->dispatcher().register_method(
        "test.ChainProtocol", "echo",
        [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
          rpc::BytesWritable p;
          p.read_fields(in);
          rpc::BytesWritable(std::move(p.value)).write(out);
          co_return;
        });
    back->start();
    front = engine.make_server(tb.host(1), kFrontAddr);
    down = engine.make_client(tb.host(1));
    front->dispatcher().register_method(
        "test.ChainProtocol", "forward",
        [this](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
          rpc::BytesWritable p;
          p.read_fields(in);
          rpc::BytesWritable req(p.value);
          rpc::BytesWritable resp;
          activate(active(tb.host(1).tracer()), in.trace_context);
          co_await down->call(kBackAddr, kEcho, req, &resp);
          rpc::BytesWritable(std::move(resp.value)).write(out);
        });
    front->start();
    client = engine.make_client(tb.host(0));
  }
  ~ChainFixture() {
    front->stop();
    back->stop();
    tb.sched().drain_tasks();
  }
  TraceCollector col;
  Testbed tb;
  RpcEngine engine;
  std::unique_ptr<rpc::RpcServer> front;
  std::unique_ptr<rpc::RpcServer> back;
  std::unique_ptr<rpc::RpcClient> down;
  std::unique_ptr<rpc::RpcClient> client;
};

class TracePropagation : public ::testing::TestWithParam<RpcMode> {};

TEST_P(TracePropagation, NestedRpcFormsOneTree) {
  Scheduler s;
  ChainFixture f(s, GetParam());
  bool ok = false;
  s.spawn([](ChainFixture& fx, bool& done) -> Task {
    net::Bytes payload(128, net::Byte{0x5A});
    rpc::BytesWritable req(payload);
    rpc::BytesWritable resp;
    co_await fx.client->call(kFrontAddr, kFwd, req, &resp);
    done = resp.value == payload;
  }(f, ok));
  s.run_until(sim::seconds(10));
  ASSERT_TRUE(ok);

  const Span* rpc_fwd = find_span(f.col, "rpc:forward");
  const Span* handle_fwd = find_span(f.col, "handle:forward");
  const Span* rpc_echo = find_span(f.col, "rpc:echo");
  const Span* handle_echo = find_span(f.col, "handle:echo");
  const Span* recv_fwd = find_span(f.col, "recv:forward");
  const Span* queue = find_span(f.col, "queue");
  ASSERT_NE(rpc_fwd, nullptr);
  ASSERT_NE(handle_fwd, nullptr);
  ASSERT_NE(rpc_echo, nullptr);
  ASSERT_NE(handle_echo, nullptr);
  ASSERT_NE(recv_fwd, nullptr);
  ASSERT_NE(queue, nullptr);

  // One tree: outer call is the root; the chain nests under it.
  EXPECT_EQ(rpc_fwd->parent_id, 0u);
  EXPECT_EQ(handle_fwd->parent_id, rpc_fwd->id);
  EXPECT_EQ(rpc_echo->parent_id, handle_fwd->id);
  EXPECT_EQ(handle_echo->parent_id, rpc_echo->id);
  EXPECT_EQ(recv_fwd->parent_id, rpc_fwd->id);
  const std::uint64_t t = rpc_fwd->trace_id;
  for (const Span* sp : {handle_fwd, rpc_echo, handle_echo, recv_fwd, queue}) {
    EXPECT_EQ(sp->trace_id, t) << sp->name;
  }

  // Spans land on the hosts that did the work.
  EXPECT_EQ(rpc_fwd->host, 0);
  EXPECT_EQ(handle_fwd->host, 1);
  EXPECT_EQ(rpc_echo->host, 1);
  EXPECT_EQ(handle_echo->host, 2);

  // Nesting in time: each child runs inside its parent's window.
  EXPECT_GE(handle_fwd->start, rpc_fwd->start);
  EXPECT_LE(handle_fwd->end, rpc_fwd->end);
  EXPECT_GE(rpc_echo->start, handle_fwd->start);
  EXPECT_LE(rpc_echo->end, handle_fwd->end);
  EXPECT_EQ(f.col.open_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, TracePropagation,
                         ::testing::Values(RpcMode::kSocketIPoIB, RpcMode::kRpcoIB));

// ---------------------------------------------------------------------------
// Critical path: the per-category sums must cover the root span exactly.

TEST(TraceCriticalPath, AttributionSumsToRootDuration) {
  TraceCollector col;
  col.set_enabled(true);
  workloads::run_randomwriter_sort(RpcMode::kSocketIPoIB, 2, 256ULL << 20, 7, &col);
  ASSERT_NE(col.longest_root(), nullptr);
  const Attribution a = attribute_time(col);
  ASSERT_NE(a.root, nullptr);
  EXPECT_EQ(a.root->name, "job:sort");
  EXPECT_GT(a.total(), 0u);
  EXPECT_EQ(a.attributed(), a.total());
  // The sweep found real work, not just one flat bucket.
  EXPECT_GT(a.by_category[static_cast<int>(Category::kDisk)], 0u);
  EXPECT_GT(a.by_category[static_cast<int>(Category::kWire)], 0u);
  EXPECT_GT(a.by_category[static_cast<int>(Category::kCompute)], 0u);
}

TEST(TraceCriticalPath, SingleRpcAttributionSumsExactly) {
  TraceCollector col;
  col.set_enabled(true);
  workloads::run_latency(RpcMode::kSocketIPoIB, {1024}, 1, 4, 1, &col);
  const Attribution a = attribute_time(col);
  ASSERT_NE(a.root, nullptr);
  EXPECT_EQ(a.attributed(), a.total());
  EXPECT_GT(a.by_category[static_cast<int>(Category::kWire)], 0u);
}

// ---------------------------------------------------------------------------
// Satellite: MethodProfile::size_sequence stays bounded by sequence_cap.

TEST(RpcStatsCap, SizeSequenceIsBounded) {
  rpc::RpcStats st;
  st.record_sequences = true;
  st.sequence_cap = 4;
  rpc::MethodProfile p;
  for (std::uint32_t i = 0; i < 10; ++i) st.record_size(p, 100 + i);
  EXPECT_EQ(p.size_sequence.size(), 4u);
  EXPECT_EQ(p.sequence_dropped, 6u);
  // The first N survive (the sequence keeps its prefix, not a sample).
  EXPECT_EQ(p.size_sequence.front(), 100u);
  EXPECT_EQ(p.size_sequence.back(), 103u);
}

TEST(RpcStatsCap, ZeroCapMeansUnbounded) {
  rpc::RpcStats st;
  st.record_sequences = true;
  st.sequence_cap = 0;
  rpc::MethodProfile p;
  for (std::uint32_t i = 0; i < 10; ++i) st.record_size(p, i);
  EXPECT_EQ(p.size_sequence.size(), 10u);
  EXPECT_EQ(p.sequence_dropped, 0u);
}

}  // namespace
}  // namespace rpcoib::trace
