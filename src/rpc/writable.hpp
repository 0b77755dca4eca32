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

#include <array>
#include <bit>
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

namespace detail {

template <typename T>
void store_be(net::Byte* dst, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<net::Byte>(v >> (8 * (sizeof(T) - 1 - i)));
  }
}

template <typename T>
T load_be(const net::Byte* src) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>((v << 8) | src[i]);
  }
  return v;
}

}  // namespace detail

/// Abstract output stream (java.io.DataOutput). Concrete sinks:
/// DataOutputBuffer (JVM-heap growable buffer, the paper's Algorithm 1),
/// BufferedOutputStream (socket path), rpcoib::RDMAOutputStream (registered
/// native buffer).
///
/// Put area (opt-in, DESIGN.md "Stream put area and span reader"): a sink
/// whose write_raw cost depends only on the write's size may point
/// [put_cur_, put_end_) at its free storage and fill put_cost_[n] with
/// exactly what its write_raw accrues for an n-byte write,
/// n <= kPutAreaMax. A small write that fits then lands inline and adds
/// that charge; write_raw sees only writes that do not fit, bulk writes,
/// and every write of a sink without an area. The sink keeps its own
/// state in put_cur_ (it is the write position).
class DataOutput {
 public:
  /// Largest write the put area serves inline.
  static constexpr std::size_t kPutAreaMax = 16;
  using PutCosts = std::array<sim::Dur, kPutAreaMax + 1>;

  explicit DataOutput(const cluster::CostModel& cm) : cm_(cm), field_op_(cm.field_op()) {}
  virtual ~DataOutput() = default;

  /// Raw byte-range write; concrete sinks implement this.
  virtual void write_raw(net::ByteSpan data) = 0;

  void write_u8(std::uint8_t v) { put_field(v); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u16(std::uint16_t v) { put_field(v); }
  void write_u32(std::uint32_t v) { put_field(v); }
  void write_u64(std::uint64_t v) { put_field(v); }
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f64(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

  /// WritableUtils.writeVLong / writeVInt.
  void write_vi64(std::int64_t v);
  void write_vi32(std::int32_t v) { write_vi64(v); }

  /// org.apache.hadoop.io.Text: vint byte length + UTF-8 bytes.
  void write_text(std::string_view s);

  /// BytesWritable: 4-byte length + payload.
  void write_bytes(net::ByteSpan data);

  /// Raw payload write with field-op accounting (DataOutputStream.write).
  void write_payload(net::ByteSpan data) {
    accrue(field_op_);
    put(data.data(), data.size());
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

 protected:
  net::Byte* put_cur_ = nullptr;
  net::Byte* put_end_ = nullptr;
  PutCosts put_cost_{};

 private:
  /// One fixed-width big-endian field: a field op plus its bytes.
  template <typename T>
  void put_field(T v) {
    accrue(field_op_);
    if (sizeof(T) <= static_cast<std::size_t>(put_end_ - put_cur_)) {
      detail::store_be(put_cur_, v);
      put_cur_ += sizeof(T);
      accrued_ += put_cost_[sizeof(T)];
      return;
    }
    net::Byte b[sizeof(T)];
    detail::store_be(b, v);
    write_raw(net::ByteSpan(b, sizeof(T)));
  }

  /// `n` bytes, inline when 1 <= n <= kPutAreaMax and they fit (an empty
  /// write always reaches write_raw, as without an area).
  void put(const net::Byte* p, std::size_t n) {
    if (n - 1 < kPutAreaMax && n <= static_cast<std::size_t>(put_end_ - put_cur_)) {
      std::memcpy(put_cur_, p, n);
      put_cur_ += n;
      accrued_ += put_cost_[n];
      return;
    }
    write_raw(net::ByteSpan(p, n));
  }

  const cluster::CostModel& cm_;
  const sim::Dur field_op_;
  sim::Dur accrued_ = 0;
};

/// Input stream over one contiguous byte range (java.io.DataInput). Every
/// source in the tree reads from memory it does not own — a heap frame
/// (DataInputBuffer) or a registered native buffer (RDMAInputStream) — so
/// the reader is the range itself: [get_cur_, get_end_), plus where it
/// began. The referenced bytes must outlive the reader. A read past the
/// end throws SerializationError.
class DataInput {
 public:
  DataInput(const cluster::CostModel& cm, net::ByteSpan data)
      : cm_(cm),
        field_op_(cm.field_op()),
        begin_(data.data()),
        get_cur_(data.data()),
        get_end_(data.data() + data.size()) {}

  std::size_t remaining() const { return static_cast<std::size_t>(get_end_ - get_cur_); }
  std::size_t position() const { return static_cast<std::size_t>(get_cur_ - begin_); }

  void read_raw(net::MutByteSpan out) {
    const net::Byte* in = take(out.size());
    if (!out.empty()) std::memcpy(out.data(), in, out.size());
  }

  std::uint8_t read_u8() { return get_field<std::uint8_t>(); }
  bool read_bool() { return read_u8() != 0; }
  std::uint16_t read_u16() { return get_field<std::uint16_t>(); }
  std::uint32_t read_u32() { return get_field<std::uint32_t>(); }
  std::uint64_t read_u64() { return get_field<std::uint64_t>(); }
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  double read_f64() { return std::bit_cast<double>(read_u64()); }

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
  /// The next `n` bytes, consumed.
  const net::Byte* take(std::size_t n) {
    if (n > remaining()) throw SerializationError("read past end of stream");
    const net::Byte* p = get_cur_;
    get_cur_ += n;
    return p;
  }

  template <typename T>
  T get_field() {
    accrue(field_op_);
    return detail::load_be<T>(take(sizeof(T)));
  }

  const cluster::CostModel& cm_;
  const sim::Dur field_op_;
  const net::Byte* begin_;
  const net::Byte* get_cur_;
  const net::Byte* get_end_;
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
