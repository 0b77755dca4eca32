// Hadoop's Writable serialization framework, ported to C++.
//
// Faithful to Hadoop 0.20.2's wire behaviour — big-endian fixed-width
// primitives, WritableUtils variable-length ints, Text (vint length +
// bytes), BytesWritable (fixed 4-byte length + bytes) — because the
// paper's Table I/Fig. 3 numbers come from the *pattern* of many small
// stream writes these encoders perform against a growable buffer.
//
// Streams accrue modeled host-CPU cost (field ops, copies, allocations) as
// plain function calls; the owning coroutine charges the accrued total to
// its host afterwards. This keeps Writable::write() an ordinary virtual
// function, exactly like Hadoop's, while still accounting every copy.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cluster/cost_model.hpp"
#include "net/bytes.hpp"
#include "sim/time.hpp"
#include "trace/context.hpp"

namespace rpcoib::rpc {

class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what) : std::runtime_error(what) {}
};

/// Abstract output stream (java.io.DataOutput). Concrete sinks:
/// DataOutputBuffer (JVM-heap growable buffer, the paper's Algorithm 1),
/// BufferedOutputStream (socket path), rpcoib::RDMAOutputStream (registered
/// native buffer).
class DataOutput {
 public:
  explicit DataOutput(const cluster::CostModel& cm) : cm_(cm) {}
  virtual ~DataOutput() = default;

  /// Raw byte-range write; concrete sinks implement this.
  virtual void write_raw(net::ByteSpan data) = 0;

  void write_u8(std::uint8_t v) {
    accrue(cm_.field_op());
    write_raw(net::ByteSpan(&v, 1));
  }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f64(double v);

  /// WritableUtils.writeVLong / writeVInt.
  void write_vi64(std::int64_t v);
  void write_vi32(std::int32_t v) { write_vi64(v); }

  /// org.apache.hadoop.io.Text: vint byte length + UTF-8 bytes.
  void write_text(std::string_view s);

  /// BytesWritable: 4-byte length + payload.
  void write_bytes(net::ByteSpan data);

  /// Raw payload write with field-op accounting (DataOutputStream.write).
  void write_payload(net::ByteSpan data) {
    accrue(cm_.field_op());
    write_raw(data);
  }

  // --- modeled cost accrual -------------------------------------------
  void accrue(sim::Dur d) { accrued_ += d; }
  sim::Dur take_accrued() {
    sim::Dur d = accrued_;
    accrued_ = 0;
    return d;
  }
  sim::Dur accrued() const { return accrued_; }
  const cluster::CostModel& cost_model() const { return cm_; }

 private:
  const cluster::CostModel& cm_;
  sim::Dur accrued_ = 0;
};

/// Abstract input stream (java.io.DataInput).
class DataInput {
 public:
  explicit DataInput(const cluster::CostModel& cm) : cm_(cm) {}
  virtual ~DataInput() = default;

  /// The next `n` bytes as one contiguous view into the stream's storage,
  /// consumed; concrete sources implement this. Throws SerializationError
  /// past the end.
  virtual net::ByteSpan read_view(std::size_t n) = 0;
  virtual std::size_t remaining() const = 0;

  void read_raw(net::MutByteSpan out) {
    const net::ByteSpan in = read_view(out.size());
    if (!in.empty()) std::memcpy(out.data(), in.data(), in.size());
  }

  std::uint8_t read_u8() {
    accrue(cm_.field_op());
    std::uint8_t v = 0;
    read_raw(net::MutByteSpan(&v, 1));
    return v;
  }
  bool read_bool() { return read_u8() != 0; }
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  double read_f64();

  std::int64_t read_vi64();
  std::int32_t read_vi32();

  std::string read_text();
  /// read_text() into `out`, reusing its capacity. Accrues the same
  /// modelled cost (Java's readString always allocates a new String).
  void read_text(std::string& out);
  net::Bytes read_bytes();

  void accrue(sim::Dur d) { accrued_ += d; }
  /// Allocation costs are tracked separately as well, so the server can
  /// decompose receive time into "buffer allocation" vs everything else
  /// (the paper's Fig. 1).
  void accrue_alloc(sim::Dur d) {
    accrued_ += d;
    alloc_accrued_ += d;
  }
  sim::Dur take_accrued() {
    sim::Dur d = accrued_;
    accrued_ = 0;
    return d;
  }
  sim::Dur take_alloc_accrued() {
    sim::Dur d = alloc_accrued_;
    alloc_accrued_ = 0;
    return d;
  }
  const cluster::CostModel& cost_model() const { return cm_; }

  /// Trace context of the RPC this input belongs to. Set by the server
  /// transport on the DataInput it hands the handler, so application
  /// handlers can parent their spans (and downstream RPCs) correctly.
  trace::TraceContext trace_context;

 private:
  const cluster::CostModel& cm_;
  sim::Dur accrued_ = 0;
  sim::Dur alloc_accrued_ = 0;
};

/// org.apache.hadoop.io.Writable.
class Writable {
 public:
  virtual ~Writable() = default;
  virtual void write(DataOutput& out) const = 0;
  virtual void read_fields(DataInput& in) = 0;

  /// One-sided read-plane eligibility: if this parameter, used as the
  /// request of `protocol`/`method`, names an entity whose serialized
  /// response the server may have published to its exported region,
  /// return that entity key. std::nullopt (the default) keeps the call on
  /// the normal RPC path. Only read-only, deterministic-response methods
  /// may opt in — the fast path returns a published snapshot verbatim.
  virtual std::optional<std::string> onesided_key(const std::string& protocol,
                                                  const std::string& method) const {
    (void)protocol;
    (void)method;
    return std::nullopt;
  }
};

// --- Primitive writables ---------------------------------------------------

class IntWritable final : public Writable {
 public:
  IntWritable() = default;
  explicit IntWritable(std::int32_t v) : value(v) {}
  void write(DataOutput& out) const override { out.write_i32(value); }
  void read_fields(DataInput& in) override { value = in.read_i32(); }
  std::int32_t value = 0;
};

class LongWritable final : public Writable {
 public:
  LongWritable() = default;
  explicit LongWritable(std::int64_t v) : value(v) {}
  void write(DataOutput& out) const override { out.write_i64(value); }
  void read_fields(DataInput& in) override { value = in.read_i64(); }
  std::int64_t value = 0;
};

class VLongWritable final : public Writable {
 public:
  VLongWritable() = default;
  explicit VLongWritable(std::int64_t v) : value(v) {}
  void write(DataOutput& out) const override { out.write_vi64(value); }
  void read_fields(DataInput& in) override { value = in.read_vi64(); }
  std::int64_t value = 0;
};

class BooleanWritable final : public Writable {
 public:
  BooleanWritable() = default;
  explicit BooleanWritable(bool v) : value(v) {}
  void write(DataOutput& out) const override { out.write_bool(value); }
  void read_fields(DataInput& in) override { value = in.read_bool(); }
  bool value = false;
};

class Text final : public Writable {
 public:
  Text() = default;
  explicit Text(std::string v) : value(std::move(v)) {}
  void write(DataOutput& out) const override { out.write_text(value); }
  void read_fields(DataInput& in) override { value = in.read_text(); }
  std::string value;
};

class BytesWritable final : public Writable {
 public:
  BytesWritable() = default;
  explicit BytesWritable(net::Bytes v) : value(std::move(v)) {}
  void write(DataOutput& out) const override { out.write_bytes(value); }
  void read_fields(DataInput& in) override { value = in.read_bytes(); }
  net::Bytes value;
};

class NullWritable final : public Writable {
 public:
  void write(DataOutput&) const override {}
  void read_fields(DataInput&) override {}
};

}  // namespace rpcoib::rpc
