// MapReduce data model: job specifications, task descriptors, and the
// Writable payloads for the two protocols the paper profiles —
// mapred.InterTrackerProtocol (JobTracker heartbeats, "JT heartbeat" in
// Fig. 3) and mapred.TaskUmbilicalProtocol (Table I's Map/Reduce rows).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rpc/writable.hpp"
#include "sim/time.hpp"
#include "trace/context.hpp"

namespace rpcoib::mapred {

inline constexpr const char* kInterTrackerProtocol = "mapred.InterTrackerProtocol";
inline constexpr const char* kTaskUmbilicalProtocol = "mapred.TaskUmbilicalProtocol";
inline constexpr const char* kJobSubmissionProtocol = "mapred.JobSubmissionProtocol";

using JobId = std::int32_t;
using TaskId = std::int32_t;

enum class TaskType : std::uint8_t { kMap = 0, kReduce = 1 };

/// Workload description — the knobs the paper's benchmarks vary.
struct JobSpec {
  std::string name = "job";
  int num_maps = 1;
  int num_reduces = 1;
  std::uint64_t input_bytes = 0;   // split evenly across maps
  double map_output_ratio = 1.0;   // map output / map input
  double reduce_output_ratio = 1.0;  // reduce output / shuffle input
  /// Synthetic output written by each map directly to HDFS (RandomWriter
  /// pattern: map-only jobs with generated data).
  std::uint64_t map_direct_output_bytes = 0;
  bool map_only = false;
  /// CPU cost of the user map/reduce function, microseconds per MB.
  double map_cpu_us_per_mb = 2000.0;
  double reduce_cpu_us_per_mb = 2500.0;
  /// Fixed per-task overhead (child JVM launch + localization compute).
  sim::Dur task_startup = sim::millis(900);
  /// NameNode RPCs during task localization (job.xml, job.jar, split file).
  int localization_nn_calls = 6;
  std::string output_path = "/out";
  /// Fault injection for tests: map tasks with id < this value fail on
  /// their first attempt (the JobTracker must reschedule them).
  int inject_map_failures = 0;
};

struct JobStatus {
  bool exists = false;
  bool complete = false;
  int maps_done = 0;
  int reduces_done = 0;
  sim::Time submit_time = 0;
  sim::Time finish_time = 0;
};

// --- Protocol payloads ------------------------------------------------------

/// Job submission carries the full job configuration (the job.xml
/// contents, in effect), so the JobTracker can hand specs to trackers.
struct JobSubmission final : rpc::Writable {
  JobId id = -1;
  JobSpec spec;
  // Job-scoped trace context (vi64-encoded: one byte each when untraced),
  // so every task the job spawns parents to the submitter's job span.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  trace::TraceContext ctx() const { return trace::TraceContext{trace_id, span_id}; }
  void set_ctx(trace::TraceContext c) {
    trace_id = c.trace_id;
    span_id = c.span_id;
  }

  void write(rpc::DataOutput& out) const override {
    out.write_vi32(id);
    out.write_vi64(static_cast<std::int64_t>(trace_id));
    out.write_vi64(static_cast<std::int64_t>(span_id));
    out.write_text(spec.name);
    out.write_vi32(spec.num_maps);
    out.write_vi32(spec.num_reduces);
    out.write_u64(spec.input_bytes);
    out.write_f64(spec.map_output_ratio);
    out.write_f64(spec.reduce_output_ratio);
    out.write_u64(spec.map_direct_output_bytes);
    out.write_bool(spec.map_only);
    out.write_f64(spec.map_cpu_us_per_mb);
    out.write_f64(spec.reduce_cpu_us_per_mb);
    out.write_u64(spec.task_startup);
    out.write_vi32(spec.localization_nn_calls);
    out.write_text(spec.output_path);
    out.write_vi32(spec.inject_map_failures);
  }
  void read_fields(rpc::DataInput& in) override {
    id = in.read_vi32();
    trace_id = static_cast<std::uint64_t>(in.read_vi64());
    span_id = static_cast<std::uint64_t>(in.read_vi64());
    spec.name = in.read_text();
    spec.num_maps = in.read_vi32();
    spec.num_reduces = in.read_vi32();
    spec.input_bytes = in.read_u64();
    spec.map_output_ratio = in.read_f64();
    spec.reduce_output_ratio = in.read_f64();
    spec.map_direct_output_bytes = in.read_u64();
    spec.map_only = in.read_bool();
    spec.map_cpu_us_per_mb = in.read_f64();
    spec.reduce_cpu_us_per_mb = in.read_f64();
    spec.task_startup = in.read_u64();
    spec.localization_nn_calls = in.read_vi32();
    spec.output_path = in.read_text();
    spec.inject_map_failures = in.read_vi32();
  }
};

/// One runnable task handed to a TaskTracker in a heartbeat response.
struct TaskAssignment {
  JobId job = -1;
  TaskId task = -1;
  TaskType type = TaskType::kMap;
  // Job span context, stamped by the JobTracker on new assignments so the
  // tracker's task span parents to the submitting client's job span.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  trace::TraceContext ctx() const { return trace::TraceContext{trace_id, span_id}; }
  void set_ctx(trace::TraceContext c) {
    trace_id = c.trace_id;
    span_id = c.span_id;
  }

  void write(rpc::DataOutput& out) const {
    out.write_vi32(job);
    out.write_vi32(task);
    out.write_u8(static_cast<std::uint8_t>(type));
    out.write_vi64(static_cast<std::int64_t>(trace_id));
    out.write_vi64(static_cast<std::int64_t>(span_id));
  }
  void read_fields(rpc::DataInput& in) {
    job = in.read_vi32();
    task = in.read_vi32();
    type = static_cast<TaskType>(in.read_u8());
    trace_id = static_cast<std::uint64_t>(in.read_vi64());
    span_id = static_cast<std::uint64_t>(in.read_vi64());
  }
};

/// Per-running-task status carried inside every TaskTracker heartbeat —
/// the reason "JT heartbeat" message sizes vary so widely in Fig. 3.
struct TaskReport {
  JobId job = -1;
  TaskId task = -1;
  TaskType type = TaskType::kMap;
  float progress = 0;
  // Hadoop ships the full named counter set on every report — the reason
  // statusUpdate serializations walk the 32-byte DataOutputBuffer through
  // ~5 adjustments in Table I. Names are views into static storage (the
  // default table or the intern set), so copying a report copies one
  // vector and no strings.
  using Counters = std::vector<std::pair<std::string_view, std::int64_t>>;
  Counters counters = default_counters();

  static const Counters& default_counters() {
    static const Counters table = {
        {"org.apache.hadoop.mapred.Task$Counter.MAP_INPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.MAP_OUTPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.MAP_INPUT_BYTES", 0},
        {"org.apache.hadoop.mapred.Task$Counter.MAP_OUTPUT_BYTES", 0},
        {"org.apache.hadoop.mapred.Task$Counter.COMBINE_INPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.COMBINE_OUTPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.REDUCE_INPUT_GROUPS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.REDUCE_SHUFFLE_BYTES", 0},
        {"org.apache.hadoop.mapred.Task$Counter.REDUCE_INPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.REDUCE_OUTPUT_RECORDS", 0},
        {"org.apache.hadoop.mapred.Task$Counter.SPILLED_RECORDS", 0},
        {"FileSystemCounters.FILE_BYTES_READ", 0},
        {"FileSystemCounters.FILE_BYTES_WRITTEN", 0},
        {"FileSystemCounters.HDFS_BYTES_READ", 0},
        {"FileSystemCounters.HDFS_BYTES_WRITTEN", 0},
    };
    return table;
  }

  /// A view of `name` with static lifetime: the default table's entry
  /// (tried at position `hint` first) or a process-wide interned copy.
  static std::string_view intern_counter_name(std::string_view name, std::size_t hint) {
    const Counters& table = default_counters();
    if (hint < table.size() && table[hint].first == name) return table[hint].first;
    for (const auto& entry : table) {
      if (entry.first == name) return entry.first;
    }
    static std::set<std::string, std::less<>> interned;  // nodes never move
    auto it = interned.find(name);
    if (it == interned.end()) it = interned.emplace(name).first;
    return *it;
  }

  void write(rpc::DataOutput& out) const {
    out.write_vi32(job);
    out.write_vi32(task);
    out.write_u8(static_cast<std::uint8_t>(type));
    out.write_f64(progress);
    out.write_vi32(static_cast<std::int32_t>(counters.size()));
    for (const auto& [name, c] : counters) {
      out.write_text(name);
      out.write_vi64(c);
    }
  }
  void read_fields(rpc::DataInput& in) {
    job = in.read_vi32();
    task = in.read_vi32();
    type = static_cast<TaskType>(in.read_u8());
    progress = static_cast<float>(in.read_f64());
    counters.resize(static_cast<std::size_t>(in.read_vi32()));
    thread_local std::string name;  // scratch; every name is interned below
    for (std::size_t i = 0; i < counters.size(); ++i) {
      in.read_text(name);
      counters[i].first = intern_counter_name(name, i);
      counters[i].second = in.read_vi64();
    }
  }
};

struct HeartbeatRequest final : rpc::Writable {
  std::int32_t tracker = -1;
  std::int32_t free_map_slots = 0;
  std::int32_t free_reduce_slots = 0;
  std::vector<TaskReport> running;  // full status, every heartbeat
  std::vector<TaskAssignment> completed;
  std::vector<TaskAssignment> failed;  // the JobTracker reschedules these

  void write(rpc::DataOutput& out) const override {
    out.write_vi32(tracker);
    out.write_vi32(free_map_slots);
    out.write_vi32(free_reduce_slots);
    out.write_vi32(static_cast<std::int32_t>(running.size()));
    for (const TaskReport& r : running) r.write(out);
    out.write_vi32(static_cast<std::int32_t>(completed.size()));
    for (const TaskAssignment& c : completed) c.write(out);
    out.write_vi32(static_cast<std::int32_t>(failed.size()));
    for (const TaskAssignment& f : failed) f.write(out);
  }
  void read_fields(rpc::DataInput& in) override {
    tracker = in.read_vi32();
    free_map_slots = in.read_vi32();
    free_reduce_slots = in.read_vi32();
    running.resize(static_cast<std::size_t>(in.read_vi32()));
    for (TaskReport& r : running) r.read_fields(in);
    completed.resize(static_cast<std::size_t>(in.read_vi32()));
    for (TaskAssignment& c : completed) c.read_fields(in);
    failed.resize(static_cast<std::size_t>(in.read_vi32()));
    for (TaskAssignment& f : failed) f.read_fields(in);
  }
};

struct HeartbeatResponse final : rpc::Writable {
  std::vector<TaskAssignment> new_tasks;
  bool job_complete = false;

  void write(rpc::DataOutput& out) const override {
    out.write_vi32(static_cast<std::int32_t>(new_tasks.size()));
    for (const TaskAssignment& t : new_tasks) t.write(out);
    out.write_bool(job_complete);
  }
  void read_fields(rpc::DataInput& in) override {
    new_tasks.resize(static_cast<std::size_t>(in.read_vi32()));
    for (TaskAssignment& t : new_tasks) t.read_fields(in);
    job_complete = in.read_bool();
  }
};

/// Umbilical statusUpdate: the most adjustment-heavy call in Table I
/// (avg 5 memory adjustments) because the full TaskStatus + counters go
/// through a fresh 32-byte DataOutputBuffer every time.
struct StatusUpdateParam final : rpc::Writable {
  TaskReport report;
  std::string state_string;  // Hadoop ships a free-text state, too

  void write(rpc::DataOutput& out) const override {
    report.write(out);
    out.write_text(state_string);
  }
  void read_fields(rpc::DataInput& in) override {
    report.read_fields(in);
    state_string = in.read_text();
  }
};

struct TaskIdParam final : rpc::Writable {
  JobId job = -1;
  TaskId task = -1;
  void write(rpc::DataOutput& out) const override {
    out.write_vi32(job);
    out.write_vi32(task);
  }
  void read_fields(rpc::DataInput& in) override {
    job = in.read_vi32();
    task = in.read_vi32();
  }
};

struct MapCompletionEventsResult final : rpc::Writable {
  std::int32_t total_maps = 0;
  std::vector<std::int32_t> completed_map_hosts;  // host of each completed map

  void write(rpc::DataOutput& out) const override {
    out.write_vi32(total_maps);
    out.write_vi32(static_cast<std::int32_t>(completed_map_hosts.size()));
    for (std::int32_t h : completed_map_hosts) out.write_vi32(h);
  }
  void read_fields(rpc::DataInput& in) override {
    total_maps = in.read_vi32();
    completed_map_hosts.resize(static_cast<std::size_t>(in.read_vi32()));
    for (std::int32_t& h : completed_map_hosts) h = in.read_vi32();
  }
};

struct JobStatusResult final : rpc::Writable {
  bool exists = false;
  bool complete = false;
  std::int32_t maps_done = 0;
  std::int32_t reduces_done = 0;
  void write(rpc::DataOutput& out) const override {
    out.write_bool(exists);
    out.write_bool(complete);
    out.write_vi32(maps_done);
    out.write_vi32(reduces_done);
  }
  void read_fields(rpc::DataInput& in) override {
    exists = in.read_bool();
    complete = in.read_bool();
    maps_done = in.read_vi32();
    reduces_done = in.read_vi32();
  }
};

}  // namespace rpcoib::mapred
