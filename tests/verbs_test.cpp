// Tests for the simulated verbs layer: registration, send/recv matching,
// RDMA read/write data integrity, completion ordering, error paths.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>

#include "net/testbed.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::verbs {
namespace {

using net::Byte;
using net::Bytes;
using net::Testbed;
using net::Transport;
using sim::Scheduler;
using sim::Task;

struct VerbsFixture {
  explicit VerbsFixture(Scheduler& s) : tb(s, Testbed::cluster_b()), stack(tb.fabric()), cm(stack, tb.sockets()) {}
  Testbed tb;
  VerbsStack stack;
  ConnectionManager cm;
};

TEST(MemoryRegion, RegisterResolveDeregister) {
  Scheduler s;
  VerbsFixture f(s);
  ProtectionDomain pd(f.stack, f.tb.host(0));
  Bytes buf(4096);
  MemoryRegion mr = pd.register_mr_untimed(buf);
  EXPECT_GT(mr.rkey, 0u);
  EXPECT_EQ(f.stack.resolve(mr.rkey, 0, 4096).data(), buf.data());
  EXPECT_EQ(f.stack.resolve(mr.rkey, 100, 8).data(), buf.data() + 100);
  EXPECT_THROW(f.stack.resolve(mr.rkey, 4000, 200), VerbsError);
  pd.deregister(mr);
  EXPECT_THROW(f.stack.resolve(mr.rkey, 0, 1), VerbsError);
}

TEST(MemoryRegion, RegistrationCostScalesWithSize) {
  Scheduler s;
  VerbsFixture f(s);
  EXPECT_LT(f.stack.registration_cost(4096), f.stack.registration_cost(1 << 20));
}

Task server_side(VerbsFixture& f, net::Listener& l, CompletionQueue& scq, CompletionQueue& rcq,
                 QueuePairPtr& out) {
  net::SocketPtr boot = co_await l.accept();
  out = co_await f.cm.accept(boot, scq, rcq);
}

Task client_side(VerbsFixture& f, net::Address addr, CompletionQueue& scq,
                 CompletionQueue& rcq, QueuePairPtr& out) {
  out = co_await f.cm.connect(f.tb.host(0), addr, scq, rcq);
}

struct ConnectedPair {
  ConnectedPair(Scheduler& s, VerbsFixture& f)
      : client_scq(s), client_rcq(s), server_scq(s), server_rcq(s) {
    net::Listener& l = f.tb.sockets().listen({1, 7000});
    s.spawn(server_side(f, l, server_scq, server_rcq, server_qp));
    s.spawn(client_side(f, {1, 7000}, client_scq, client_rcq, client_qp));
    s.run();
  }
  CompletionQueue client_scq, client_rcq, server_scq, server_rcq;
  QueuePairPtr client_qp, server_qp;
};

TEST(ConnectionManager, EstablishesConnectedQpPair) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);
  ASSERT_TRUE(p.client_qp);
  ASSERT_TRUE(p.server_qp);
  EXPECT_TRUE(p.client_qp->connected());
  EXPECT_TRUE(p.server_qp->connected());
  EXPECT_EQ(p.client_qp->remote_host(), 1);
  EXPECT_EQ(p.server_qp->remote_host(), 0);
}

Task do_send(QueuePairPtr qp, Bytes payload) { co_await qp->post_send(1, payload); }

TEST(QueuePair, SendConsumesPostedRecvFifo) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  Bytes rbuf1(64), rbuf2(64);
  p.server_qp->post_recv(11, rbuf1);
  p.server_qp->post_recv(12, rbuf2);

  Bytes m1(16);
  std::iota(m1.begin(), m1.end(), Byte{1});
  Bytes m2(24);
  std::iota(m2.begin(), m2.end(), Byte{100});
  s.spawn(do_send(p.client_qp, m1));
  s.spawn(do_send(p.client_qp, m2));
  s.run();

  WorkCompletion wc;
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 11u);
  EXPECT_EQ(wc.opcode, Opcode::kRecv);
  EXPECT_EQ(wc.byte_len, 16u);
  EXPECT_EQ(0, memcmp(rbuf1.data(), m1.data(), m1.size()));
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 12u);
  EXPECT_EQ(wc.byte_len, 24u);
  EXPECT_EQ(0, memcmp(rbuf2.data(), m2.data(), m2.size()));
  // Sender got two kSend completions.
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kSend);
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_FALSE(p.client_scq.poll(wc));
}

TEST(QueuePair, SendBeforeRecvParksUntilRecvPosted) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  Bytes msg(8, Byte{7});
  s.spawn(do_send(p.client_qp, msg));
  s.run();
  WorkCompletion wc;
  EXPECT_FALSE(p.server_rcq.poll(wc));  // nothing posted yet (RNR parking)

  Bytes rbuf(8);
  p.server_qp->post_recv(42, rbuf);
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 42u);
  EXPECT_EQ(rbuf, msg);
}

Task do_write(QueuePairPtr qp, Bytes payload, RemoteBuffer dst, std::optional<std::uint32_t> imm) {
  co_await qp->post_rdma_write(5, payload, dst, imm);
}

TEST(QueuePair, RdmaWritePlacesBytesAndRaisesImm) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes target(256, Byte{0});
  MemoryRegion mr = server_pd.register_mr_untimed(target);

  Bytes payload(200);
  std::iota(payload.begin(), payload.end(), Byte{0});
  s.spawn(do_write(p.client_qp, payload, RemoteBuffer{mr.rkey, 16, 240}, 0xBEEF));
  s.run();

  EXPECT_EQ(0, memcmp(target.data() + 16, payload.data(), payload.size()));
  WorkCompletion wc;
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kRecvRdmaWithImm);
  EXPECT_EQ(wc.imm_data, 0xBEEFu);
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kRdmaWrite);
}

Task do_read(QueuePairPtr qp, net::MutByteSpan local, RemoteBuffer src) {
  co_await qp->post_rdma_read(6, local, src);
}

// Regression: a stream writer that gives up at its chunk deadline tears
// its connection (QP and CQs) down while a posted WRITE is still
// unacknowledged. The send completion, due one ACK later, must be dropped
// instead of landing in the destroyed CQ.
TEST(QueuePair, WriteCompletionForDestroyedCqIsDropped) {
  Scheduler s;
  VerbsFixture f(s);
  auto p = std::make_unique<ConnectedPair>(s, f);

  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes target(256, Byte{0});
  MemoryRegion mr = server_pd.register_mr_untimed(target);
  Bytes payload(200, Byte{9});
  s.spawn(do_write(p->client_qp, payload, RemoteBuffer{mr.rkey, 0, 256}, 0xBEEF));
  // Run until the WRITE has landed at the peer; its ACK is still in flight.
  while (p->server_rcq.depth() == 0 && s.step()) {
  }
  ASSERT_EQ(p->server_rcq.depth(), 1u);
  ASSERT_EQ(p->client_scq.depth(), 0u);
  EXPECT_EQ(0, memcmp(target.data(), payload.data(), payload.size()));

  p.reset();
  ASSERT_FALSE(s.idle());  // the pending completion
  s.run();
  EXPECT_TRUE(s.idle());
}

// The same for every other deferred completion: a SEND arriving at, and a
// READ returning to, a connection whose CQs are gone.
TEST(QueuePair, InFlightSendAndReadOutlivingTheirCqsAreDropped) {
  Scheduler s;
  VerbsFixture f(s);
  auto p = std::make_unique<ConnectedPair>(s, f);

  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes remote(128, Byte{5});
  MemoryRegion mr = server_pd.register_mr_untimed(remote);
  Bytes rbuf(64);
  p->server_qp->post_recv(1, rbuf);
  Bytes local(128, Byte{0});
  Bytes msg(32, Byte{7});
  s.spawn(do_send(p->client_qp, msg));
  s.spawn(do_read(p->client_qp, local, RemoteBuffer{mr.rkey, 0, 128}));
  // Run until both WQEs are posted; neither has arrived yet.
  while (s.live_task_count() > 0 && s.step()) {
  }
  ASSERT_EQ(p->server_rcq.depth(), 0u);
  ASSERT_EQ(p->client_scq.depth(), 0u);

  p.reset();
  s.run();
  EXPECT_TRUE(s.idle());
  // The torn-down requester's buffer is left untouched.
  EXPECT_EQ(local, Bytes(128, Byte{0}));
}

TEST(QueuePair, RdmaReadFetchesRemoteBytes) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes remote(512);
  std::iota(remote.begin(), remote.end(), Byte{0});
  MemoryRegion mr = server_pd.register_mr_untimed(remote);

  Bytes local(128, Byte{0});
  s.spawn(do_read(p.client_qp, local, RemoteBuffer{mr.rkey, 64, 128}));
  s.run();

  EXPECT_EQ(0, memcmp(local.data(), remote.data() + 64, 128));
  WorkCompletion wc;
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kRdmaRead);
  EXPECT_EQ(wc.byte_len, 128u);
  // One-sided: the server CQs saw nothing.
  EXPECT_FALSE(p.server_rcq.poll(wc));
  EXPECT_FALSE(p.server_scq.poll(wc));
}

Task expect_send_throws(QueuePairPtr qp, bool& threw) {
  Bytes b(4);
  try {
    co_await qp->post_send(1, b);
  } catch (const VerbsError&) {
    threw = true;
  }
}

TEST(QueuePair, DisconnectedSendThrows) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);
  p.client_qp->disconnect();
  bool threw = false;
  s.spawn(expect_send_throws(p.client_qp, threw));
  s.run();
  EXPECT_TRUE(threw);
}

Task latency_probe(ConnectedPair& p, Scheduler& s, sim::Time& oneway) {
  Bytes msg(1);
  const sim::Time t0 = s.now();
  co_await p.client_qp->post_send(1, msg);
  (void)co_await p.server_rcq.wait();
  oneway = s.now() - t0;
}

TEST(QueuePair, SmallMessageLatencyNearHardwareFigure) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);
  Bytes rbuf(64);
  p.server_qp->post_recv(1, rbuf);
  sim::Time oneway = 0;
  s.spawn(latency_probe(p, s, oneway));
  s.run();
  // ~1.3us wire + doorbell/poll: must be in the small single-digit us range.
  EXPECT_GT(sim::to_us(oneway), 1.0);
  EXPECT_LT(sim::to_us(oneway), 5.0);
}

Task ud_send(UdEndpoint& ep, AddressHandle ah, Bytes payload) {
  co_await ep.post_send(1, ah, payload);
}

Task ud_recv(CompletionQueue& rcq, Scheduler& s, sim::Time& arrived) {
  (void)co_await rcq.wait();
  arrived = s.now();
}

// Virtual time at which a lone UD datagram with `payload_bytes` of payload
// lands in a posted receive on an idle fabric.
sim::Time ud_arrival(std::size_t payload_bytes) {
  Scheduler s;
  VerbsFixture f(s);
  CompletionQueue scq_a(s), rcq_a(s), scq_b(s), rcq_b(s);
  UdEndpoint a(f.stack, f.tb.host(0), scq_a, rcq_a);
  UdEndpoint b(f.stack, f.tb.host(1), scq_b, rcq_b);
  Bytes ring(UdEndpoint::kGrhBytes + UdEndpoint::kMtu);
  b.post_recv(7, ring);
  sim::Time arrived = 0;
  s.spawn(ud_recv(rcq_b, s, arrived));
  s.spawn(ud_send(a, AddressHandle{f.tb.host(1).id(), b.qpn()}, Bytes(payload_bytes, 1)));
  s.run();
  s.drain_tasks();
  return arrived;
}

Task cq_waiter(CompletionQueue& cq, bool& closed) {
  try {
    const WorkCompletion wc = co_await cq.wait();
    (void)wc;
  } catch (const sim::ChannelClosed&) {
    closed = true;
  }
}

TEST(CompletionQueue, WaitThrowsChannelClosedAfterCloseOnAnEmptyQueue) {
  Scheduler s;
  CompletionQueue cq(s);
  cq.close();
  bool closed = false;
  s.spawn(cq_waiter(cq, closed));
  s.run();
  EXPECT_TRUE(closed);
}

TEST(CompletionQueue, CloseReleasesASuspendedWaiterWithChannelClosed) {
  Scheduler s;
  CompletionQueue cq(s);
  bool closed = false;
  s.spawn(cq_waiter(cq, closed));
  s.run();
  EXPECT_FALSE(closed);
  cq.close();
  s.run();
  EXPECT_TRUE(closed);
}

// Regression: the wire charge once read the payload size in the same
// argument list that moved the payload, so under GCC every datagram was
// charged as an empty one (GRH only), whatever its size.
TEST(Ud, DatagramIsChargedWireTimeForItsOwnSize) {
  const sim::Time small = ud_arrival(16);
  const sim::Time full = ud_arrival(UdEndpoint::kMtu);
  ASSERT_GT(small, 0u);
  EXPECT_GT(full, small);
}

}  // namespace
}  // namespace rpcoib::verbs
