// Property round-trips for every protocol payload in the HDFS, MapReduce,
// and HBase wire vocabularies, plus cross-buffer compatibility (serialize
// via Algorithm-1 buffer, deserialize via RDMA stream and vice versa).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "hbase/hbase.hpp"
#include "hdfs/types.hpp"
#include "mapred/types.hpp"
#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpcoib/rdma_streams.hpp"

namespace rpcoib {
namespace {

const cluster::CostModel kCm{};

template <typename T>
T roundtrip(const T& value) {
  rpc::DataOutputBuffer out(kCm);
  value.write(out);
  rpc::DataInputBuffer in(kCm, out.data());
  T back;
  back.read_fields(in);
  EXPECT_EQ(in.remaining(), 0u) << "trailing bytes after read_fields";
  return back;
}

TEST(HdfsWritables, BlockAndLocatedBlock) {
  hdfs::LocatedBlock lb;
  lb.block = {12345, 64ULL << 20};
  lb.locations = {3, 7, 11};
  rpc::DataOutputBuffer out(kCm);
  lb.write(out);
  rpc::DataInputBuffer in(kCm, out.data());
  hdfs::LocatedBlock back;
  back.read_fields(in);
  EXPECT_EQ(back.block.id, 12345u);
  EXPECT_EQ(back.block.num_bytes, 64ULL << 20);
  EXPECT_EQ(back.locations, lb.locations);
}

TEST(HdfsWritables, AllProtocolPayloads) {
  {
    hdfs::PathParam p("/a/b/c", "client-9");
    hdfs::PathParam b = roundtrip(p);
    EXPECT_EQ(b.path, "/a/b/c");
    EXPECT_EQ(b.client, "client-9");
  }
  {
    hdfs::CreateParam p;
    p.path = "/f";
    p.client = "c";
    p.overwrite = false;
    p.replication = 5;
    p.block_size = 128ULL << 20;
    hdfs::CreateParam b = roundtrip(p);
    EXPECT_EQ(b.replication, 5);
    EXPECT_FALSE(b.overwrite);
    EXPECT_EQ(b.block_size, 128ULL << 20);
  }
  {
    hdfs::LocatedBlocksResult r;
    r.file_length = 999;
    r.blocks.resize(3);
    r.blocks[1].block.id = 42;
    r.blocks[1].locations = {1, 2, 3};
    hdfs::LocatedBlocksResult b = roundtrip(r);
    EXPECT_EQ(b.file_length, 999u);
    ASSERT_EQ(b.blocks.size(), 3u);
    EXPECT_EQ(b.blocks[1].block.id, 42u);
  }
  {
    hdfs::FileStatusResult r;
    r.exists = true;
    r.status.path = "/x";
    r.status.is_dir = true;
    r.status.replication = 3;
    hdfs::FileStatusResult b = roundtrip(r);
    EXPECT_TRUE(b.exists);
    EXPECT_TRUE(b.status.is_dir);
    EXPECT_EQ(b.status.path, "/x");
  }
  {
    hdfs::FileStatusResult r;  // absent file: no status on the wire
    hdfs::FileStatusResult b = roundtrip(r);
    EXPECT_FALSE(b.exists);
  }
  {
    hdfs::BlockReportParam p;
    p.id = 12;
    p.blocks = {{1, 10}, {2, 20}, {3, 30}};
    hdfs::BlockReportParam b = roundtrip(p);
    EXPECT_EQ(b.id, 12);
    ASSERT_EQ(b.blocks.size(), 3u);
    EXPECT_EQ(b.blocks[2].num_bytes, 30u);
  }
  {
    hdfs::HeartbeatResult r;
    r.command = 1;
    r.replicate_target.block.id = 5;
    r.replicate_target.locations = {9};
    hdfs::HeartbeatResult b = roundtrip(r);
    EXPECT_EQ(b.command, 1);
    EXPECT_EQ(b.replicate_target.block.id, 5u);
  }
}

TEST(MapredWritables, JobSubmissionCarriesFullSpec) {
  mapred::JobSubmission sub;
  sub.id = 7;
  sub.spec.name = "terasort";
  sub.spec.num_maps = 2048;
  sub.spec.num_reduces = 256;
  sub.spec.input_bytes = 128ULL << 30;
  sub.spec.map_output_ratio = 0.75;
  sub.spec.map_only = false;
  sub.spec.map_cpu_us_per_mb = 1234.5;
  sub.spec.output_path = "/out/terasort";
  mapred::JobSubmission b = roundtrip(sub);
  EXPECT_EQ(b.id, 7);
  EXPECT_EQ(b.spec.name, "terasort");
  EXPECT_EQ(b.spec.num_maps, 2048);
  EXPECT_EQ(b.spec.input_bytes, 128ULL << 30);
  EXPECT_DOUBLE_EQ(b.spec.map_output_ratio, 0.75);
  EXPECT_DOUBLE_EQ(b.spec.map_cpu_us_per_mb, 1234.5);
  EXPECT_EQ(b.spec.output_path, "/out/terasort");
}

TEST(MapredWritables, HeartbeatWithRunningTasks) {
  mapred::HeartbeatRequest req;
  req.tracker = 33;
  req.free_map_slots = 2;
  req.free_reduce_slots = 1;
  req.running.resize(3);
  req.running[0].job = 1;
  req.running[0].task = 17;
  req.running[0].type = mapred::TaskType::kReduce;
  req.running[0].progress = 0.5f;
  req.completed.push_back({1, 4, mapred::TaskType::kMap});
  mapred::HeartbeatRequest b = roundtrip(req);
  EXPECT_EQ(b.tracker, 33);
  ASSERT_EQ(b.running.size(), 3u);
  EXPECT_EQ(b.running[0].task, 17);
  EXPECT_EQ(b.running[0].type, mapred::TaskType::kReduce);
  EXPECT_FLOAT_EQ(b.running[0].progress, 0.5f);
  ASSERT_EQ(b.completed.size(), 1u);
  EXPECT_EQ(b.completed[0].task, 4);
  // The named counter set survives the trip (Table I's payload weight).
  EXPECT_EQ(b.running[0].counters.size(),
            mapred::TaskReport::default_counters().size());
}

TEST(MapredWritables, StatusUpdateIsAdjustmentHeavy) {
  mapred::StatusUpdateParam p;
  p.report.job = 1;
  p.report.task = 2;
  p.state_string = "reduce > copy (3 of 64 at 1.2 MB/s)";
  rpc::DataOutputBuffer out(kCm);  // 32-byte client default
  p.write(out);
  // The named-counter payload forces multiple Algorithm-1 adjustments —
  // the Table I behaviour (avg 5).
  EXPECT_GE(out.stats().mem_adjustments, 4u);
  rpc::DataInputBuffer in(kCm, out.data());
  mapred::StatusUpdateParam b;
  b.read_fields(in);
  EXPECT_EQ(b.state_string, p.state_string);
}

// The 15 Hadoop counter names a default TaskReport carries, spelled out as
// the strings the wire format has always carried.
const char* const kDefaultCounterNames[] = {
    "org.apache.hadoop.mapred.Task$Counter.MAP_INPUT_RECORDS",
    "org.apache.hadoop.mapred.Task$Counter.MAP_OUTPUT_RECORDS",
    "org.apache.hadoop.mapred.Task$Counter.MAP_INPUT_BYTES",
    "org.apache.hadoop.mapred.Task$Counter.MAP_OUTPUT_BYTES",
    "org.apache.hadoop.mapred.Task$Counter.COMBINE_INPUT_RECORDS",
    "org.apache.hadoop.mapred.Task$Counter.COMBINE_OUTPUT_RECORDS",
    "org.apache.hadoop.mapred.Task$Counter.REDUCE_INPUT_GROUPS",
    "org.apache.hadoop.mapred.Task$Counter.REDUCE_SHUFFLE_BYTES",
    "org.apache.hadoop.mapred.Task$Counter.REDUCE_INPUT_RECORDS",
    "org.apache.hadoop.mapred.Task$Counter.REDUCE_OUTPUT_RECORDS",
    "org.apache.hadoop.mapred.Task$Counter.SPILLED_RECORDS",
    "FileSystemCounters.FILE_BYTES_READ",
    "FileSystemCounters.FILE_BYTES_WRITTEN",
    "FileSystemCounters.HDFS_BYTES_READ",
    "FileSystemCounters.HDFS_BYTES_WRITTEN",
};

TEST(MapredWritables, DefaultTaskReportWireMatchesStringCounterNames) {
  mapred::TaskReport r;
  r.job = 3;
  r.task = 9;
  r.type = mapred::TaskType::kReduce;
  r.progress = 0.25f;
  rpc::DataOutputBuffer got(kCm);
  r.write(got);

  rpc::DataOutputBuffer want(kCm);
  want.write_vi32(3);
  want.write_vi32(9);
  want.write_u8(1);
  want.write_f64(0.25f);
  want.write_vi32(15);
  for (const char* name : kDefaultCounterNames) {
    want.write_text(std::string(name));
    want.write_vi64(0);
  }
  const net::Bytes got_bytes(got.data().begin(), got.data().end());
  const net::Bytes want_bytes(want.data().begin(), want.data().end());
  EXPECT_EQ(got_bytes, want_bytes);
  // Same modelled serialization cost and Algorithm-1 growth, too.
  EXPECT_EQ(got.accrued(), want.accrued());
  EXPECT_EQ(got.stats().mem_adjustments, want.stats().mem_adjustments);
}

void expect_custom_counters_round_trip(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    names.push_back("org.example.Custom$Counter.STAGE_" + std::to_string(i) + "_OF_" +
                    std::to_string(n));
  }
  const std::vector<std::string> expected = names;  // outlives everything below
  mapred::TaskReport r;
  r.counters.clear();
  for (int i = 0; i < n; ++i) r.counters.emplace_back(names[i], 1000 + i);

  mapred::TaskReport back;
  {
    rpc::DataOutputBuffer out(kCm);
    r.write(out);
    names.clear();  // the writer's strings go away before anything is read
    auto wire = std::make_unique<net::Bytes>(out.data().begin(), out.data().end());
    rpc::DataInputBuffer in(kCm, *wire);
    back.read_fields(in);
    EXPECT_EQ(in.remaining(), 0u);
    std::fill(wire->begin(), wire->end(), net::Byte{0xEE});
  }  // the input buffer is destroyed: no name may point into it

  ASSERT_EQ(back.counters.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(back.counters[i].first, expected[i]);
    EXPECT_EQ(back.counters[i].second, 1000 + i);
  }
}

TEST(MapredWritables, NonDefaultCounterNamesRoundTrip) {
  expect_custom_counters_round_trip(3);
  expect_custom_counters_round_trip(20);
}

TEST(Writables, TextReadIntoReusedStringAccruesModelledCost) {
  const std::string text = "org.apache.hadoop.mapred.Task$Counter.SPILLED_RECORDS";
  rpc::DataOutputBuffer out(kCm);
  out.write_text(text);
  rpc::DataInputBuffer length_only(kCm, out.data());
  (void)length_only.read_vi64();
  const sim::Dur vint_cost = length_only.take_accrued();

  // new String(bytes) each time, even when the target string has room.
  std::string scratch(200, 'x');
  for (int i = 0; i < 2; ++i) {
    rpc::DataInputBuffer in(kCm, out.data());
    in.read_text(scratch);
    EXPECT_EQ(scratch, text);
    EXPECT_EQ(in.take_alloc_accrued(), kCm.heap_alloc(text.size()));
    EXPECT_EQ(in.take_accrued(), vint_cost + kCm.heap_alloc(text.size()) + kCm.field_op() +
                                     kCm.heap_copy(text.size()));
  }
}

// BytesWritable.readFields is modelled as an allocation plus one copy out
// of the stream, whichever stream the bytes arrive in.
TEST(Writables, BytesReadAccruesModelledCostOnBothStreamKinds) {
  net::Bytes payload(3000);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<net::Byte>(i * 7 + 1);
  rpc::DataOutputBuffer out(kCm);
  out.write_bytes(payload);
  out.write_u8(0x42);  // a field after the bytes must still line up
  rpc::DataInputBuffer length_only(kCm, out.data());
  (void)length_only.read_u32();
  const sim::Dur length_cost = length_only.take_accrued();
  const sim::Dur alloc_cost = kCm.heap_alloc(payload.size());

  rpc::DataInputBuffer heap_in(kCm, out.data());
  oib::RDMAInputStream rdma_in(kCm, out.data());
  for (rpc::DataInput* in : {static_cast<rpc::DataInput*>(&heap_in),
                             static_cast<rpc::DataInput*>(&rdma_in)}) {
    EXPECT_EQ(in->read_bytes(), payload);
    EXPECT_EQ(in->take_alloc_accrued(), alloc_cost);
    EXPECT_EQ(in->take_accrued(),
              length_cost + alloc_cost + kCm.field_op() + kCm.heap_copy(payload.size()));
    EXPECT_EQ(in->read_u8(), 0x42);
    EXPECT_EQ(in->remaining(), 0u);
  }

  // A length running past the end of the stream is refused on both kinds.
  const net::ByteSpan truncated(out.data().data(), out.data().size() - 2);
  rpc::DataInputBuffer short_heap(kCm, truncated);
  oib::RDMAInputStream short_rdma(kCm, truncated);
  EXPECT_THROW(short_heap.read_bytes(), rpc::SerializationError);
  EXPECT_THROW(short_rdma.read_bytes(), rpc::SerializationError);
}

TEST(HBaseWritables, PutGetRoundTrip) {
  hbase::PutParam p;
  p.key = "user12345";
  p.value.assign(1024, net::Byte{0xEE});
  hbase::PutParam b = roundtrip(p);
  EXPECT_EQ(b.key, "user12345");
  EXPECT_EQ(b.value, p.value);

  hbase::GetResult r;
  r.found = true;
  r.value.assign(77, net::Byte{1});
  hbase::GetResult back = roundtrip(r);
  EXPECT_TRUE(back.found);
  EXPECT_EQ(back.value.size(), 77u);

  hbase::GetResult miss;
  EXPECT_FALSE(roundtrip(miss).found);
}

TEST(CrossBuffer, Alg1ToRdmaStreamAndBack) {
  sim::Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());
  oib::NativeBufferPool pool(tb.host(0), stack);
  oib::ShadowPool shadow(pool);
  const rpc::MethodKey key{"x", "y"};

  hdfs::HeartbeatParam p;
  p.id = 3;
  p.used_bytes = 123456789;
  p.xceiver_count = 9;

  // Serialize with the RDMA stream, deserialize with the heap reader.
  oib::RDMAOutputStream rout(kCm, shadow, key);
  p.write(rout);
  rpc::DataInputBuffer hin(kCm, rout.data());
  hdfs::HeartbeatParam b1;
  b1.read_fields(hin);
  EXPECT_EQ(b1.used_bytes, p.used_bytes);

  // Serialize with Algorithm 1, deserialize with the RDMA reader.
  rpc::DataOutputBuffer hout(kCm);
  p.write(hout);
  oib::RDMAInputStream rin(kCm, hout.data());
  hdfs::HeartbeatParam b2;
  b2.read_fields(rin);
  EXPECT_EQ(b2.xceiver_count, 9u);

  oib::NativeBuffer* buf = rout.take_buffer();
  rout.finish(buf);
}

}  // namespace
}  // namespace rpcoib
