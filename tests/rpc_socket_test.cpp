// End-to-end tests of the default (socket) Hadoop RPC path: echo calls,
// concurrent calls, exceptions, multiple clients, stats capture.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpc/socket_client.hpp"
#include "rpc/socket_server.hpp"

namespace rpcoib::rpc {
namespace {

using net::Address;
using net::Testbed;
using net::Transport;
using sim::Co;
using sim::Scheduler;
using sim::Task;

constexpr Address kServerAddr{1, 9000};

// Named method keys: the codebase rule forbids non-trivially-destructible
// temporaries in co_await statements (see sim/task.hpp).
const MethodKey kEcho{"test.EchoProtocol", "echo"};
const MethodKey kAdd{"test.EchoProtocol", "add"};
const MethodKey kFail{"test.EchoProtocol", "fail"};
const MethodKey kNope{"test.EchoProtocol", "nope"};

/// Registers a tiny test protocol on a server:
///   echo(BytesWritable) -> BytesWritable
///   add(two i32)        -> IntWritable
///   fail(Null)          -> always throws
void register_test_protocol(RpcServer& server) {
  server.dispatcher().register_method(
      "test.EchoProtocol", "echo", [](DataInput& in, DataOutput& out) -> Co<void> {
        BytesWritable payload;
        payload.read_fields(in);
        BytesWritable(std::move(payload.value)).write(out);
        co_return;
      });
  server.dispatcher().register_method(
      "test.EchoProtocol", "add", [](DataInput& in, DataOutput& out) -> Co<void> {
        const std::int32_t a = in.read_i32();
        const std::int32_t b = in.read_i32();
        IntWritable(a + b).write(out);
        co_return;
      });
  server.dispatcher().register_method(
      "test.EchoProtocol", "fail", [](DataInput&, DataOutput&) -> Co<void> {
        throw std::runtime_error("deliberate failure");
        co_return;
      });
}

struct AddParam final : Writable {
  std::int32_t a = 0, b = 0;
  void write(DataOutput& out) const override {
    out.write_i32(a);
    out.write_i32(b);
  }
  void read_fields(DataInput& in) override {
    a = in.read_i32();
    b = in.read_i32();
  }
};

struct Fixture {
  Fixture(Scheduler& s, Transport t = Transport::kIPoIB)
      : tb(s, Testbed::cluster_b()),
        server(tb.host(1), tb.sockets(), kServerAddr, 4),
        client(tb.host(0), tb.sockets(), t) {
    register_test_protocol(server);
    server.start();
  }
  ~Fixture() {
    client.close_connections();
    server.stop();
    tb.sched().drain_tasks();
  }
  Testbed tb;
  SocketRpcServer server;
  SocketRpcClient client;
};

Task call_echo(Fixture& f, std::size_t n, net::Bytes& got, bool& ok) {
  net::Bytes payload(n);
  for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<net::Byte>(i * 7);
  BytesWritable req(payload);
  BytesWritable resp;
  co_await f.client.call(kServerAddr, kEcho, req, &resp);
  got = std::move(resp.value);
  ok = (got == payload);
}

TEST(SocketRpc, EchoRoundTripsPayload) {
  Scheduler s;
  Fixture f(s);
  net::Bytes got;
  bool ok = false;
  s.spawn(call_echo(f, 512, got, ok));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got.size(), 512u);
}

class EchoSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EchoSizes, RoundTripsAllSizes) {
  Scheduler s;
  Fixture f(s);
  net::Bytes got;
  bool ok = false;
  s.spawn(call_echo(f, GetParam(), got, ok));
  s.run_until(sim::seconds(30));
  EXPECT_TRUE(ok) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, EchoSizes,
                         ::testing::Values(1, 4, 64, 1024, 4096, 65536, 1u << 20,
                                           2u << 20));

Task call_add(Fixture& f, std::int32_t a, std::int32_t b, std::int32_t& out) {
  AddParam p;
  p.a = a;
  p.b = b;
  IntWritable r;
  co_await f.client.call(kServerAddr, kAdd, p, &r);
  out = r.value;
}

TEST(SocketRpc, TypedCall) {
  Scheduler s;
  Fixture f(s);
  std::int32_t out = 0;
  s.spawn(call_add(f, 20, 22, out));
  s.run_until(sim::seconds(10));
  EXPECT_EQ(out, 42);
}

TEST(SocketRpc, ManyConcurrentCallsMultiplexOneConnection) {
  Scheduler s;
  Fixture f(s);
  constexpr int kN = 32;
  std::vector<std::int32_t> out(kN, 0);
  for (int i = 0; i < kN; ++i) s.spawn(call_add(f, i, 1000, out[static_cast<std::size_t>(i)]));
  s.run_until(sim::seconds(30));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 1000 + i);
}

Task call_fail(Fixture& f, bool& remote_ex, std::string& msg) {
  NullWritable arg;
  try {
    co_await f.client.call(kServerAddr, kFail, arg, nullptr);
  } catch (const RemoteException& e) {
    remote_ex = true;
    msg = e.what();
  }
}

TEST(SocketRpc, HandlerExceptionSurfacesAsRemoteException) {
  Scheduler s;
  Fixture f(s);
  bool remote_ex = false;
  std::string msg;
  s.spawn(call_fail(f, remote_ex, msg));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(remote_ex);
  EXPECT_EQ(msg, "deliberate failure");
}

Task call_unknown(Fixture& f, bool& remote_ex) {
  NullWritable arg;
  try {
    co_await f.client.call(kServerAddr, kNope, arg, nullptr);
  } catch (const RemoteException&) {
    remote_ex = true;
  }
}

TEST(SocketRpc, UnknownMethodIsRemoteError) {
  Scheduler s;
  Fixture f(s);
  bool remote_ex = false;
  s.spawn(call_unknown(f, remote_ex));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(remote_ex);
}

Task call_refused(Fixture& f, bool& transport_err) {
  NullWritable arg;
  try {
    co_await f.client.call({5, 4242}, kAdd, arg, nullptr);
  } catch (const RpcTransportError&) {
    transport_err = true;
  }
}

TEST(SocketRpc, ConnectionRefusedIsTransportError) {
  Scheduler s;
  Fixture f(s);
  bool transport_err = false;
  s.spawn(call_refused(f, transport_err));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(transport_err);
}

TEST(SocketRpc, StatsCaptureTableOneQuantities) {
  Scheduler s;
  Fixture f(s);
  std::int32_t out = 0;
  for (int i = 0; i < 10; ++i) s.spawn(call_add(f, i, i, out));
  s.run_until(sim::seconds(30));

  const MethodKey key{"test.EchoProtocol", "add"};
  ASSERT_TRUE(f.client.stats().methods.contains(key));
  const MethodProfile& prof = f.client.stats().methods.at(key);
  EXPECT_EQ(prof.mem_adjustments.count(), 10u);
  // Request is ~50 bytes: 32 -> 64 is one adjustment.
  EXPECT_GE(prof.mem_adjustments.mean(), 1.0);
  EXPECT_GT(prof.serialize_us.mean(), 0.0);
  EXPECT_GT(prof.send_us.mean(), 0.0);
  EXPECT_GT(prof.total_us.mean(), prof.serialize_us.mean());
  EXPECT_EQ(f.client.stats().calls_sent, 10u);
  EXPECT_EQ(f.server.stats().calls_handled, 10u);
  EXPECT_EQ(f.server.stats().recv_total_us.count(), 10u);
  EXPECT_GT(f.server.stats().recv_alloc_us.mean(), 0.0);
}

TEST(SocketRpc, SizeSequencesRecordedWhenEnabled) {
  Scheduler s;
  Fixture f(s);
  f.client.stats().record_sequences = true;
  std::int32_t out = 0;
  for (int i = 0; i < 5; ++i) s.spawn(call_add(f, i, i, out));
  s.run_until(sim::seconds(30));
  const MethodProfile& prof = f.client.stats().methods.at({"test.EchoProtocol", "add"});
  ASSERT_EQ(prof.size_sequence.size(), 5u);
  // add() has fixed-size params: perfect message size locality.
  for (std::uint32_t sz : prof.size_sequence) EXPECT_EQ(sz, prof.size_sequence[0]);
}

Task two_clients_run(Fixture& f, SocketRpcClient& c2, std::int32_t& o1, std::int32_t& o2) {
  AddParam p;
  p.a = 1;
  p.b = 2;
  IntWritable r1, r2;
  co_await f.client.call(kServerAddr, kAdd, p, &r1);
  co_await c2.call(kServerAddr, kAdd, p, &r2);
  o1 = r1.value;
  o2 = r2.value;
}

TEST(SocketRpc, MultipleClientHostsShareOneServer) {
  Scheduler s;
  Fixture f(s);
  SocketRpcClient c2(f.tb.host(2), f.tb.sockets(), Transport::kIPoIB);
  std::int32_t o1 = 0, o2 = 0;
  s.spawn(two_clients_run(f, c2, o1, o2));
  s.run_until(sim::seconds(10));
  EXPECT_EQ(o1, 3);
  EXPECT_EQ(o2, 3);
  c2.close_connections();
}

Task call_add_catching(SocketRpcClient& c, std::int32_t a, std::int32_t b,
                       std::int32_t& out, bool& failed) {
  AddParam p;
  p.a = a;
  p.b = b;
  IntWritable r;
  try {
    co_await c.call(kServerAddr, kAdd, p, &r);
    out = r.value;
  } catch (const RpcTransportError&) {
    failed = true;
  }
}

Task start_server_after_failure(Scheduler& s, SocketRpcServer& server, const bool& failed) {
  // Poll at 1 us: the first caller's connect failure wakes the waiters,
  // and the first waiter's replacement SYN is still in flight (one-way
  // latency is several us) when the listener comes up — so the retry
  // connects while the other waiter is parked on the replacement's
  // `ready` event.
  while (!failed) co_await sim::delay(s, sim::micros(1));
  server.start();
}

// Regression: a caller woken from a broken connection's `ready` event must
// not clobber the replacement another waiter already installed. Pre-fix,
// the second waiter erased the map entry unconditionally, orphaning the
// first waiter's connection (two connections opened, stranded receive
// loop); post-fix it adopts the replacement and exactly one connection is
// established.
TEST(SocketRpc, ReconnectRaceAdoptsReplacementConnection) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  SocketRpcServer server(tb.host(1), tb.sockets(), kServerAddr, 4);
  register_test_protocol(server);
  // Server NOT started yet: the first call installs the connection entry,
  // suspends in connect (SYN), and fails at the listener check.
  SocketRpcClient client(tb.host(0), tb.sockets(), Transport::kIPoIB);
  std::int32_t out_a = 0, out_b = 0, out_c = 0;
  bool failed_a = false, failed_b = false, failed_c = false;
  s.spawn(call_add_catching(client, 1, 1, out_a, failed_a));   // installs, fails
  s.spawn(call_add_catching(client, 2, 3, out_b, failed_b));   // waits on ready
  s.spawn(call_add_catching(client, 10, 20, out_c, failed_c)); // waits on ready
  s.spawn(start_server_after_failure(s, server, failed_a));
  s.run_until(sim::seconds(10));

  EXPECT_TRUE(failed_a);  // no listener at its connect
  EXPECT_FALSE(failed_b);
  EXPECT_FALSE(failed_c);
  EXPECT_EQ(out_b, 5);
  EXPECT_EQ(out_c, 30);
  // One waiter reconnected; the other adopted that replacement instead of
  // clobbering it with a second connection.
  EXPECT_EQ(client.stats().connections_opened, 1u);
  client.close_connections();
  server.stop();
  s.drain_tasks();
}

// Regression: destroying a client whose receive loop is parked in read()
// must not leave the loop touching freed state when the peer's teardown
// finally wakes it (close() is a half-close — the local reader is only
// woken by the *server* closing its end). Pre-fix this was a use-after-
// free under ASan; post-fix the loop observes the cancelled flag and
// exits.
TEST(SocketRpc, DestroyClientWithParkedReceiverIsSafe) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  SocketRpcServer server(tb.host(1), tb.sockets(), kServerAddr, 4);
  register_test_protocol(server);
  server.start();
  auto client = std::make_unique<SocketRpcClient>(tb.host(0), tb.sockets(),
                                                  Transport::kIPoIB);
  std::int32_t out = 0;
  bool failed = false;
  s.spawn(call_add_catching(*client, 3, 4, out, failed));
  s.run_until(sim::seconds(1));
  ASSERT_EQ(out, 7);
  // The call is done but the receive loop is still blocked in read() on
  // the idle connection. Destroy the client under it...
  client.reset();
  // ...then tear down the server: its side's close reaches the parked
  // reader, which resumes exactly once more after the client is gone.
  server.stop();
  s.run_until(sim::seconds(2));
}

TEST(SocketRpc, LatencyOrderingAcrossTransports) {
  auto latency = [](Transport t) {
    Scheduler s;
    Fixture f(s, t);
    std::int32_t out = 0;
    const sim::Time t0 = s.now();
    s.spawn(call_add(f, 1, 2, out));
    s.run_until(sim::seconds(10));
    EXPECT_EQ(out, 3);
    return f.client.stats().methods.at({"test.EchoProtocol", "add"}).total_us.mean() +
           sim::to_us(t0) * 0;
  };
  const double gige = latency(Transport::kOneGigE);
  const double tengige = latency(Transport::kTenGigE);
  const double ipoib = latency(Transport::kIPoIB);
  EXPECT_LT(tengige, gige);
  EXPECT_LT(ipoib, gige);
}

}  // namespace
}  // namespace rpcoib::rpc
