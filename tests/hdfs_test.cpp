// HDFS substrate tests: namespace ops, write pipeline + replication
// invariants, block reports, reads, multi-client behaviour, and both data
// modes over both RPC modes.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hdfs/hdfs_cluster.hpp"
#include "net/testbed.hpp"

namespace rpcoib::hdfs {
namespace {

using net::Testbed;
using oib::EngineConfig;
using oib::RpcEngine;
using oib::RpcMode;
using sim::Scheduler;
using sim::Task;

struct Fixture {
  Fixture(Scheduler& s, RpcMode rpc_mode = RpcMode::kSocketIPoIB,
          DataMode data_mode = DataMode::kSocketIPoIB, int dns = 4, HdfsConfig cfg = {})
      : Fixture(s, EngineConfig{.mode = rpc_mode}, data_mode, dns, cfg) {}
  Fixture(Scheduler& s, EngineConfig ec, DataMode data_mode, int dns, HdfsConfig cfg = {})
      : tb(s, Testbed::cluster_a(2 + dns)),
        engine(tb, ec),
        cluster(engine, /*nn_host=*/0, dn_hosts(dns), data_mode, cfg) {
    cluster.start();
  }
  ~Fixture() {
    cluster.stop();
    tb.sched().drain_tasks();
  }
  static std::vector<cluster::HostId> dn_hosts(int n) {
    std::vector<cluster::HostId> out;
    for (int i = 0; i < n; ++i) out.push_back(2 + i);
    return out;
  }
  Testbed tb;
  RpcEngine engine;
  HdfsCluster cluster;
};

Task do_namespace_ops(Fixture& f, bool& ok) {
  std::unique_ptr<DFSClient> c = f.cluster.make_client(f.tb.host(1), "client1");
  ok = co_await c->mkdirs("/user");
  ok = ok && co_await c->mkdirs("/user/test");
  ok = ok && co_await c->exists("/user/test");
  ok = ok && !(co_await c->exists("/user/nothing"));
  ok = ok && co_await c->rename("/user/test", "/user/renamed");
  ok = ok && co_await c->exists("/user/renamed");
  ok = ok && co_await c->remove("/user/renamed");
  ok = ok && !(co_await c->exists("/user/renamed"));
}

TEST(Hdfs, NamespaceOperations) {
  Scheduler s;
  Fixture f(s);
  bool ok = false;
  s.spawn(do_namespace_ops(f, ok));
  s.run_until(sim::seconds(30));
  EXPECT_TRUE(ok);
  f.cluster.stop();
}

Task do_write(Fixture& f, std::uint64_t nbytes, bool& done) {
  std::unique_ptr<DFSClient> c = f.cluster.make_client(f.tb.host(1), "writer");
  co_await c->write_file("/data/file1", nbytes);
  done = true;
}

TEST(Hdfs, WriteCreatesReplicatedBlocks) {
  Scheduler s;
  HdfsConfig cfg;
  cfg.block_size = 8 << 20;  // small blocks for a fast test
  Fixture f(s, RpcMode::kSocketIPoIB, DataMode::kSocketIPoIB, 4, cfg);
  bool done = false;
  s.spawn(do_write(f, 20u << 20, done));  // 20MB -> 3 blocks
  s.run_until(sim::seconds(120));
  ASSERT_TRUE(done);

  NameNode& nn = f.cluster.namenode();
  EXPECT_TRUE(nn.file_exists("/data/file1"));
  EXPECT_EQ(nn.file_length("/data/file1"), 20u << 20);
  EXPECT_EQ(nn.num_blocks(), 3u);
  // Replication invariant: every block reported by 3 datanodes.
  std::size_t total_replicas = 0;
  for (BlockId b = 1000; b < 1003; ++b) {
    EXPECT_EQ(nn.replica_count(b), 3u) << b;
    total_replicas += nn.replica_count(b);
  }
  EXPECT_EQ(total_replicas, 9u);
  f.cluster.stop();
}

TEST(Hdfs, WriteWorksOnAllDataAndRpcModes) {
  for (RpcMode rpc_mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    for (DataMode data_mode :
         {DataMode::kSocket1GigE, DataMode::kSocketIPoIB, DataMode::kRdma}) {
      Scheduler s;
      HdfsConfig cfg;
      cfg.block_size = 8 << 20;
      Fixture f(s, rpc_mode, data_mode, 3, cfg);
      bool done = false;
      s.spawn(do_write(f, 10u << 20, done));
      s.run_until(sim::seconds(300));
      EXPECT_TRUE(done) << oib::rpc_mode_name(rpc_mode) << "/" << data_mode_name(data_mode);
      f.cluster.stop();
    }
  }
}

Task do_write_read(Fixture& f, std::uint64_t& read_bytes) {
  std::unique_ptr<DFSClient> w = f.cluster.make_client(f.tb.host(1), "writer");
  co_await w->write_file("/data/wr", 12u << 20);
  std::unique_ptr<DFSClient> r = f.cluster.make_client(f.tb.host(1), "reader");
  read_bytes = co_await r->read_file("/data/wr");
}

TEST(Hdfs, ReadReturnsWrittenLength) {
  Scheduler s;
  HdfsConfig cfg;
  cfg.block_size = 8 << 20;
  Fixture f(s, RpcMode::kSocketIPoIB, DataMode::kSocketIPoIB, 4, cfg);
  std::uint64_t read_bytes = 0;
  s.spawn(do_write_read(f, read_bytes));
  s.run_until(sim::seconds(120));
  EXPECT_EQ(read_bytes, 12u << 20);
  f.cluster.stop();
}

TEST(Hdfs, HeartbeatsKeepDatanodesLive) {
  Scheduler s;
  Fixture f(s);
  s.run_until(sim::seconds(10));
  EXPECT_EQ(f.cluster.namenode().live_datanodes().size(), 4u);
  f.cluster.stop();
}

Task do_listing(Fixture& f, std::size_t& n) {
  std::unique_ptr<DFSClient> c = f.cluster.make_client(f.tb.host(1), "lister");
  co_await c->mkdirs("/out");
  co_await c->write_file("/out/part-00000", 1 << 20);
  co_await c->write_file("/out/part-00001", 1 << 20);
  ListingResult r = co_await c->get_listing("/out");
  n = r.entries.size();
}

TEST(Hdfs, ListingEnumeratesChildren) {
  Scheduler s;
  HdfsConfig cfg;
  cfg.block_size = 8 << 20;
  Fixture f(s, RpcMode::kSocketIPoIB, DataMode::kSocketIPoIB, 3, cfg);
  std::size_t n = 0;
  s.spawn(do_listing(f, n));
  s.run_until(sim::seconds(120));
  EXPECT_EQ(n, 2u);
  f.cluster.stop();
}

Task write_timed(Fixture& f, std::uint64_t nbytes, double& secs) {
  std::unique_ptr<DFSClient> c = f.cluster.make_client(f.tb.host(1), "w");
  const sim::Time t0 = f.tb.sched().now();
  co_await c->write_file("/perf/file", nbytes);
  secs = sim::to_sec(f.tb.sched().now() - t0);
}

TEST(Hdfs, RdmaDataPathFasterThanSocketPaths) {
  auto time_for = [](DataMode m) {
    Scheduler s;
    Fixture f(s, RpcMode::kSocketIPoIB, m, 4);
    double secs = 0;
    s.spawn(write_timed(f, 256u << 20, secs));
    s.run_until(sim::seconds(600));
    f.cluster.stop();
    EXPECT_GT(secs, 0.0);
    return secs;
  };
  const double gige = time_for(DataMode::kSocket1GigE);
  const double ipoib = time_for(DataMode::kSocketIPoIB);
  const double rdma = time_for(DataMode::kRdma);
  EXPECT_LT(rdma, ipoib);
  EXPECT_LT(ipoib, gige);
}

TEST(Hdfs, RpcoIBReducesWriteTimeAtFixedDataPath) {
  auto time_for = [](RpcMode m) {
    Scheduler s;
    Fixture f(s, m, DataMode::kRdma, 4);
    double secs = 0;
    s.spawn(write_timed(f, 256u << 20, secs));
    s.run_until(sim::seconds(600));
    f.cluster.stop();
    return secs;
  };
  const double ipoib_rpc = time_for(RpcMode::kSocketIPoIB);
  const double rdma_rpc = time_for(RpcMode::kRpcoIB);
  EXPECT_LT(rdma_rpc, ipoib_rpc);
}

TEST(Hdfs, DeadDatanodeTriggersReReplication) {
  Scheduler s;
  HdfsConfig cfg;
  cfg.block_size = 4 << 20;
  cfg.dn_dead_after = sim::seconds(12);
  cfg.replication_check_interval = sim::seconds(4);
  Fixture f(s, RpcMode::kSocketIPoIB, DataMode::kSocketIPoIB, 5, cfg);
  bool done = false;
  s.spawn(do_write(f, 8u << 20, done));  // 2 blocks, 3 replicas each
  s.run_until(sim::seconds(60));
  ASSERT_TRUE(done);
  NameNode& nn = f.cluster.namenode();
  EXPECT_EQ(nn.replica_count(1000), 3u);

  // Kill the datanode holding block 1000's first replica: find one.
  DataNode* victim = nullptr;
  for (cluster::HostId h : Fixture::dn_hosts(5)) {
    DataNode* dn = f.cluster.datanode(h);
    if (dn != nullptr && dn->has_block(1000)) {
      victim = dn;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  victim->stop();  // heartbeats cease; NameNode declares it dead

  s.run_until(sim::seconds(240));
  // Replication recovered on the remaining nodes.
  EXPECT_EQ(nn.replica_count(1000), 3u);
  EXPECT_EQ(nn.live_datanodes().size(), 4u);
  f.cluster.stop();
  s.drain_tasks();
}

TEST(Hdfs, TotalDatanodeLossDoesNotCrashMonitor) {
  Scheduler s;
  HdfsConfig cfg;
  cfg.block_size = 4 << 20;
  cfg.dn_dead_after = sim::seconds(12);
  cfg.replication_check_interval = sim::seconds(4);
  Fixture f(s, RpcMode::kSocketIPoIB, DataMode::kSocketIPoIB, 3, cfg);
  bool done = false;
  s.spawn(do_write(f, 4u << 20, done));
  s.run_until(sim::seconds(60));
  ASSERT_TRUE(done);
  for (cluster::HostId h : Fixture::dn_hosts(3)) {
    if (DataNode* dn = f.cluster.datanode(h)) dn->stop();
  }
  s.run_until(sim::seconds(180));
  // All replicas gone (data loss), monitor survived, no live datanodes.
  EXPECT_EQ(f.cluster.namenode().live_datanodes().size(), 0u);
  f.cluster.stop();
  s.drain_tasks();
}

// --- Streamed block pipeline -------------------------------------------------

oib::EngineConfig stream_engine(RpcMode rpc_mode) {
  oib::EngineConfig ec{.mode = rpc_mode};
  ec.stream.enabled = true;
  return ec;
}

/// Stream counters copied out of a hub before its owner dies.
struct StreamCounters {
  bool hub_present = false;
  std::uint64_t opened = 0;
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t denied = 0;
  std::uint64_t aborts = 0;
};

StreamCounters snap(oib::stream::StreamHub* hub) {
  StreamCounters c;
  if (hub == nullptr) return c;
  c.hub_present = true;
  const rpc::RpcStats& st = hub->stats();
  c.opened = st.streams_opened;
  c.chunks = st.stream_chunks;
  c.bytes = st.stream_bytes;
  c.fallbacks = st.stream_fallbacks;
  c.denied = st.stream_pool_denied;
  c.aborts = st.stream_aborts;
  return c;
}

Task do_streamed_write(Fixture& f, std::uint64_t nbytes, StreamCounters& cs, bool& done) {
  std::unique_ptr<DFSClient> c = f.cluster.make_client(f.tb.host(1), "stream-writer");
  co_await c->write_file("/data/streamed", nbytes);
  cs = snap(c->stream_hub());
  done = true;
}

TEST(Hdfs, StreamedWriteReplicatesBlocksAndCountsChunks) {
  Scheduler s;
  HdfsConfig cfg;
  cfg.block_size = 8 << 20;
  Fixture f(s, stream_engine(RpcMode::kRpcoIB), DataMode::kRdma, 4, cfg);
  StreamCounters cs;
  bool done = false;
  s.spawn(do_streamed_write(f, 20u << 20, cs, done));  // 20MB -> 8+8+4MB blocks
  s.run_until(sim::seconds(120));
  ASSERT_TRUE(done);

  // Same replication invariant as the legacy pipeline...
  NameNode& nn = f.cluster.namenode();
  EXPECT_EQ(nn.file_length("/data/streamed"), 20u << 20);
  EXPECT_EQ(nn.num_blocks(), 3u);
  for (BlockId b = 1000; b < 1003; ++b) EXPECT_EQ(nn.replica_count(b), 3u) << b;

  // ...but every block went through the client's stream hub: one stream
  // per block, 256KB chunks (32 + 32 + 16), no fallback, no abort.
  ASSERT_TRUE(cs.hub_present);
  EXPECT_EQ(cs.opened, 3u);
  EXPECT_EQ(cs.chunks, 80u);
  EXPECT_EQ(cs.bytes, 20u << 20);
  EXPECT_EQ(cs.fallbacks, 0u);
  EXPECT_EQ(cs.aborts, 0u);

  // The datanodes forwarded downstream through their own hubs (two forward
  // legs per block on the writer side, reader-side grants on all three).
  std::uint64_t dn_chunks = 0;
  for (cluster::HostId h : Fixture::dn_hosts(4)) {
    dn_chunks += snap(f.cluster.datanode_object(h)->stream_hub()).chunks;
  }
  EXPECT_GE(dn_chunks, 160u);  // >= 2 forward legs x 80 chunks

  f.cluster.stop();
  s.run_until(s.now() + sim::seconds(1));
  // No leaked registered ring/staging slots anywhere.
  for (cluster::HostId h : Fixture::dn_hosts(4)) {
    oib::stream::StreamHub* hub = f.cluster.datanode_object(h)->stream_hub();
    ASSERT_NE(hub, nullptr);
    EXPECT_EQ(hub->pool().stats().acquires, hub->pool().stats().releases) << h;
  }
  s.drain_tasks();
}

TEST(Hdfs, StreamedWriteFasterThanOneShotAtLargeBlocks) {
  // The acceptance shape of Fig. 7's streamed row: at the largest block
  // size the pipelined chunks overlap serialization, wire, and downstream
  // forwarding, beating the one-shot rendezvous block push.
  auto time_for = [](bool streamed) {
    Scheduler s;
    HdfsConfig cfg;
    cfg.block_size = 64ULL << 20;
    oib::EngineConfig ec{.mode = RpcMode::kRpcoIB};
    ec.stream.enabled = streamed;
    Fixture f(s, ec, DataMode::kRdma, 4, cfg);
    double secs = 0;
    s.spawn(write_timed(f, 256u << 20, secs));
    s.run_until(sim::seconds(600));
    f.cluster.stop();
    s.drain_tasks();
    EXPECT_GT(secs, 0.0);
    return secs;
  };
  const double one_shot = time_for(false);
  const double piped = time_for(true);
  EXPECT_LT(piped, one_shot);
}

TEST(Hdfs, CappedClientStreamPoolFallsBackToLegacyPipeline) {
  Scheduler s;
  HdfsConfig cfg;
  cfg.block_size = 8 << 20;
  // Socket RPC keeps the demand cap's blast radius off the RPC engine's own
  // pools; the cap starves only the stream hubs. Connection bootstrap alone
  // overruns a cap of 1, so no staging slot is ever granted.
  oib::EngineConfig ec{.mode = RpcMode::kSocketIPoIB};
  ec.stream.enabled = true;
  ec.pool.demand_alloc_cap = 1;
  Fixture f(s, ec, DataMode::kRdma, 3, cfg);
  StreamCounters cs;
  bool done = false;
  s.spawn(do_streamed_write(f, 10u << 20, cs, done));
  s.run_until(sim::seconds(120));
  ASSERT_TRUE(done);

  // The write degraded to the legacy one-shot pipeline and still
  // replicated fully.
  NameNode& nn = f.cluster.namenode();
  EXPECT_EQ(nn.file_length("/data/streamed"), 10u << 20);
  for (BlockId b = 1000; b < 1002; ++b) EXPECT_EQ(nn.replica_count(b), 3u) << b;
  ASSERT_TRUE(cs.hub_present);
  EXPECT_EQ(cs.opened, 0u);
  EXPECT_GE(cs.denied, 1u);
  EXPECT_GE(cs.fallbacks, 1u);

  f.cluster.stop();
  s.drain_tasks();
}

}  // namespace
}  // namespace rpcoib::hdfs
