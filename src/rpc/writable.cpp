#include "rpc/writable.hpp"

namespace rpcoib::rpc {

// WritableUtils.writeVLong, Hadoop's exact encoding: values in [-112, 127]
// are one byte; otherwise the first byte encodes sign and byte count
// (-113..-120 positive len 1..8, -121..-128 negative len 1..8), followed by
// the magnitude bytes, big-endian, without leading zeros.
void DataOutput::write_vi64(std::int64_t i) {
  accrue(field_op_);
  if (i >= -112 && i <= 127) {
    const auto b = static_cast<net::Byte>(static_cast<std::int8_t>(i));
    put(&b, 1);
    return;
  }
  int len = -112;
  std::uint64_t mag;
  if (i < 0) {
    mag = static_cast<std::uint64_t>(~i);  // i ^= -1 in Hadoop
    len = -120;
  } else {
    mag = static_cast<std::uint64_t>(i);
  }
  std::uint64_t tmp = mag;
  while (tmp != 0) {
    tmp >>= 8;
    --len;
  }
  net::Byte buf[9];
  buf[0] = static_cast<net::Byte>(static_cast<std::int8_t>(len));
  const int n = (len < -120) ? -(len + 120) : -(len + 112);
  for (int idx = n; idx != 0; --idx) {
    const int shift = (idx - 1) * 8;
    buf[n - idx + 1] = static_cast<net::Byte>((mag >> shift) & 0xFF);
  }
  put(buf, static_cast<std::size_t>(n) + 1);
}

void DataOutput::write_text(std::string_view s) {
  write_vi64(static_cast<std::int64_t>(s.size()));
  accrue(field_op_);
  put(reinterpret_cast<const net::Byte*>(s.data()), s.size());
}

void DataOutput::write_bytes(net::ByteSpan data) {
  write_u32(static_cast<std::uint32_t>(data.size()));
  accrue(field_op_);
  put(data.data(), data.size());
}

std::int64_t DataInput::read_vi64() {
  accrue(field_op_);
  const auto fb = static_cast<std::int8_t>(*take(1));
  if (fb >= -112) return fb;
  const bool neg = fb < -120;
  const int n = neg ? -(fb + 120) : -(fb + 112);
  const net::Byte* p = take(static_cast<std::size_t>(n));
  std::uint64_t mag = 0;
  for (int i = 0; i < n; ++i) mag = (mag << 8) | p[i];
  return neg ? ~static_cast<std::int64_t>(mag) : static_cast<std::int64_t>(mag);
}

std::int32_t DataInput::read_vi32() {
  const std::int64_t v = read_vi64();
  if (v < INT32_MIN || v > INT32_MAX) throw SerializationError("vint out of int32 range");
  return static_cast<std::int32_t>(v);
}

std::string DataInput::read_text() {
  std::string s;
  read_text(s);
  return s;
}

void DataInput::read_text(std::string& out) {
  const std::int64_t len = read_vi64();
  if (len < 0 || static_cast<std::size_t>(len) > remaining()) {
    throw SerializationError("bad text length");
  }
  out.resize(static_cast<std::size_t>(len));
  // new String(bytes): a heap allocation plus the copy out of the stream.
  accrue_alloc(cost_model().heap_alloc(out.size()));
  accrue(field_op_ + cost_model().heap_copy(out.size()));
  read_raw(net::MutByteSpan(reinterpret_cast<net::Byte*>(out.data()), out.size()));
}

net::Bytes DataInput::read_bytes() {
  const std::uint32_t len = read_u32();
  if (len > remaining()) throw SerializationError("bad bytes length");
  // BytesWritable.readFields: setCapacity() allocates the backing array,
  // then in.readFully copies into it. Modelled as those two steps; the
  // host builds the vector from the stream in one pass.
  accrue_alloc(cost_model().heap_alloc(len));
  accrue(field_op_ + cost_model().heap_copy(len));
  const net::Byte* in = take(len);
  return net::Bytes(in, in + len);
}

}  // namespace rpcoib::rpc
