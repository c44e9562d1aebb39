// Network layer tests: latency model, RPC, partitions, crash behaviour,
// topology notifications, the deferred-responder mechanism, and message
// payloads (typed access, copies, moves through batched delivery).

#include "src/net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/form/formation.h"

namespace locus {
namespace {

struct Ping {
  int value = 0;
};

struct Bulk {
  std::vector<int> values;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&sim_) {
    a_ = net_.AddSite("a");
    b_ = net_.AddSite("b");
    c_ = net_.AddSite("c");
  }

  Message Msg(int32_t type, int value, int32_t size = 64) {
    Message m;
    m.type = type;
    m.size_bytes = size;
    m.payload = Ping{value};
    return m;
  }

  Simulation sim_;
  Network net_;
  SiteId a_, b_, c_;
};

TEST_F(NetworkTest, LatencyModelCalibration) {
  // Small-message round trip should land near 16 ms (so a remote lock costs
  // about 18 ms as in section 6.2).
  SimTime rtt = 2 * net_.OneWayLatency(96);
  EXPECT_GE(rtt, Milliseconds(14));
  EXPECT_LE(rtt, Milliseconds(17));
  // A 1 KB page adds noticeable wire time at 10 Mb/s.
  EXPECT_GT(net_.OneWayLatency(1024), net_.OneWayLatency(64) + Microseconds(700));
}

TEST_F(NetworkTest, SendDeliversAfterLatency) {
  SimTime delivered_at = -1;
  int got = 0;
  net_.RegisterHandler(b_, 1, [&](SiteId from, const Message& m, Responder) {
    EXPECT_EQ(from, a_);
    delivered_at = sim_.Now();
    got = m.As<Ping>().value;
  });
  net_.Send(a_, b_, Msg(1, 42));
  sim_.Run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(delivered_at, net_.OneWayLatency(64));
}

TEST_F(NetworkTest, RpcRoundTrip) {
  net_.RegisterHandler(b_, 2, [&](SiteId, const Message& m, Responder r) {
    r(Msg(2, m.As<Ping>().value * 2));
  });
  RpcResult result;
  sim_.Spawn("caller", [&] { result = net_.Call(a_, b_, Msg(2, 21)); });
  sim_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.reply.As<Ping>().value, 42);
}

TEST_F(NetworkTest, DeferredResponderRepliesLater) {
  // The storage site queues a lock request and replies only when granted.
  Responder saved;
  net_.RegisterHandler(b_, 3, [&](SiteId, const Message&, Responder r) { saved = r; });
  RpcResult result;
  SimTime replied_at = 0;
  sim_.Spawn("caller", [&] {
    result = net_.Call(a_, b_, Msg(3, 0));
    replied_at = sim_.Now();
  });
  sim_.Schedule(Milliseconds(100), [&] { saved(Msg(3, 7)); });
  sim_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.reply.As<Ping>().value, 7);
  EXPECT_GT(replied_at, Milliseconds(100));
}

TEST_F(NetworkTest, DuplicateRepliesIgnored) {
  Responder saved;
  net_.RegisterHandler(b_, 3, [&](SiteId, const Message&, Responder r) { saved = r; });
  RpcResult result;
  sim_.Spawn("caller", [&] { result = net_.Call(a_, b_, Msg(3, 0)); });
  sim_.Schedule(Milliseconds(50), [&] {
    saved(Msg(3, 1));
    saved(Msg(3, 2));  // Dropped.
  });
  sim_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.reply.As<Ping>().value, 1);
}

TEST_F(NetworkTest, RpcTimesOutWithoutReply) {
  net_.RegisterHandler(b_, 4, [&](SiteId, const Message&, Responder) {});
  RpcResult result{true, {}};
  sim_.Spawn("caller", [&] { result = net_.Call(a_, b_, Msg(4, 0), Milliseconds(500)); });
  sim_.Run();
  EXPECT_FALSE(result.ok);
}

TEST_F(NetworkTest, CallToCrashedSiteFailsFast) {
  net_.Crash(b_);
  RpcResult result{true, {}};
  sim_.Spawn("caller", [&] { result = net_.Call(a_, b_, Msg(1, 0)); });
  sim_.Run();
  EXPECT_FALSE(result.ok);
}

TEST_F(NetworkTest, CrashDuringCallFailsAfterDetection) {
  net_.RegisterHandler(b_, 5, [&](SiteId, const Message&, Responder) {
    // Never replies; the site dies while the call is outstanding.
  });
  RpcResult result{true, {}};
  SimTime failed_at = 0;
  sim_.Spawn("caller", [&] {
    result = net_.Call(a_, b_, Msg(5, 0));
    failed_at = sim_.Now();
  });
  sim_.Schedule(Milliseconds(20), [&] { net_.Crash(b_); });
  sim_.Run();
  EXPECT_FALSE(result.ok);
  // Failure detected via the topology protocol, well before the timeout.
  EXPECT_LT(failed_at, Milliseconds(500));
}

TEST_F(NetworkTest, PartitionBlocksCrossGroupTraffic) {
  int received = 0;
  net_.RegisterHandler(c_, 1, [&](SiteId, const Message&, Responder) { ++received; });
  net_.SetPartitions({{a_, b_}, {c_}});
  EXPECT_TRUE(net_.Reachable(a_, b_));
  EXPECT_FALSE(net_.Reachable(a_, c_));
  net_.Send(a_, c_, Msg(1, 0));
  sim_.Run();
  EXPECT_EQ(received, 0);
  net_.ClearPartitions();
  EXPECT_TRUE(net_.Reachable(a_, c_));
  net_.Send(a_, c_, Msg(1, 0));
  sim_.Run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, UnlistedSitesBecomeSingletons) {
  net_.SetPartitions({{a_, b_}});
  EXPECT_FALSE(net_.Reachable(a_, c_));
  EXPECT_FALSE(net_.Reachable(b_, c_));
  EXPECT_TRUE(net_.Reachable(c_, c_));
}

TEST_F(NetworkTest, TopologyCallbacksFireOnSurvivors) {
  int a_calls = 0;
  int b_calls = 0;
  net_.OnTopologyChange(a_, [&] { ++a_calls; });
  net_.OnTopologyChange(b_, [&] { ++b_calls; });
  net_.Crash(b_);
  sim_.Run();
  EXPECT_EQ(a_calls, 1);
  EXPECT_EQ(b_calls, 0);  // Dead sites observe nothing.
  net_.Reboot(b_);
  sim_.Run();
  EXPECT_EQ(a_calls, 2);
  EXPECT_EQ(b_calls, 1);  // Rebooted site sees its own return.
}

TEST_F(NetworkTest, BootEpochAdvances) {
  EXPECT_EQ(net_.BootEpoch(b_), 0u);
  net_.Crash(b_);
  net_.Reboot(b_);
  EXPECT_EQ(net_.BootEpoch(b_), 1u);
}

TEST_F(NetworkTest, MessagesCounted) {
  net_.RegisterHandler(b_, 2, [&](SiteId, const Message& m, Responder r) { r(m); });
  sim_.Spawn("caller", [&] { net_.Call(a_, b_, Msg(2, 1)); });
  sim_.Run();
  EXPECT_EQ(net_.stats().Get("net.messages"), 2);  // Request + reply.
}

// A read as the wrong type is a protocol bug: it aborts, naming the message
// type, the type asked for and the type held.
TEST(MessageDeathTest, PayloadTypeMismatchAbortsWithTypeNames) {
  Message m;
  m.type = 5;
  m.payload = Ping{1};
  EXPECT_DEATH(m.As<Bulk>(), "type mismatch on message type 5: expected .*Bulk.*, actual .*Ping");
  Message empty;
  EXPECT_DEATH(empty.As<Ping>(), "expected .*Ping.*, actual \\(empty\\)");
}

TEST(Message, PayloadKeepsItsValueAcrossCopyAndMove) {
  Message m;
  m.payload = Bulk{{1, 2, 3}};
  Message copy = m;
  EXPECT_EQ(copy.As<Bulk>().values, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(m.As<Bulk>().values, (std::vector<int>{1, 2, 3}));
  Message moved = std::move(m);
  EXPECT_EQ(moved.As<Bulk>().values, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(m.payload.has_value());  // NOLINT(bugprone-use-after-move): moved-from is empty.
  copy = moved;
  copy.As<Bulk>().values.push_back(4);
  EXPECT_EQ(moved.As<Bulk>().values, (std::vector<int>{1, 2, 3}));
  moved.payload = Ping{9};
  EXPECT_EQ(moved.As<Ping>().value, 9);
  EXPECT_EQ(moved.payload.get<Bulk>(), nullptr);
  copy = std::move(moved);
  EXPECT_EQ(copy.As<Ping>().value, 9);
}

// Handlers own the message they are handed: one can move a bulk payload out
// of an item unpacked from a formation batch, and a reply moved back rides a
// batch to the caller intact.
TEST_F(NetworkTest, HandlerMovesThePayloadOutOfABatchedItem) {
  FormationQueue form_a(&net_, &net_.stats(), a_, /*enabled=*/true);
  FormationQueue form_b(&net_, &net_.stats(), b_, /*enabled=*/true);
  form_a.Start();
  form_b.Start();
  std::vector<int> taken;
  net_.RegisterHandler(b_, 6, [&](SiteId, Message& m, Responder) {
    taken = std::move(m.As<Bulk>().values);
  });
  net_.RegisterHandler(b_, 7, [&](SiteId, Message& m, Responder r) { r(std::move(m)); });
  Message one_way;
  one_way.type = 6;
  one_way.payload = Bulk{{4, 5, 6}};
  form_a.Send(b_, std::move(one_way));
  RpcResult result;
  sim_.Spawn("caller", [&] {
    Message request;
    request.type = 7;
    request.payload = Bulk{{7, 8}};
    result = form_a.Call(b_, std::move(request));
  });
  sim_.Run();
  EXPECT_EQ(taken, (std::vector<int>{4, 5, 6}));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.reply.As<Bulk>().values, (std::vector<int>{7, 8}));
  EXPECT_GE(net_.stats().Get("form.batches"), 2);
}

}  // namespace
}  // namespace locus
