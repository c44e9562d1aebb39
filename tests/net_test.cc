// Network layer tests: latency model, RPC, partitions, crash behaviour,
// topology notifications, the deferred-responder mechanism, and message
// payloads (typed access, copies, moves through batched delivery).

#include "src/net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/form/formation.h"
#include "src/sim/random.h"

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

// The pending-call table against a reference model (a std::map by call id),
// under a random script of split calls, replies, time-outs, partitions and
// heals, and late duplicate replies through every responder ever made. Slots
// are reused, so a stale reply names a slot that may hold a later call: it
// must be dropped, never complete that call. Checked: every call returns
// exactly once; a call that succeeds gets its own reply; the table's count
// matches the model's at every step; the calls one partition fails return in
// call-id order.
TEST(PendingCallTable, MatchesAReferenceModel) {
  Simulation sim;
  Network net(&sim);
  const std::vector<SiteId> sites = {net.AddSite("a"), net.AddSite("b"), net.AddSite("c"),
                                     net.AddSite("d")};
  struct ModelCall {
    SiteId from = kNoSite;
    SiteId to = kNoSite;
    int returns = 0;
    bool ok = false;
    SimTime returned_at = -1;
  };
  std::map<uint64_t, ModelCall> model;
  std::vector<std::pair<Responder, uint64_t>> responders;
  std::set<uint32_t> slots;
  std::vector<uint64_t> return_order;
  size_t wrong_replies = 0;
  size_t count_mismatches = 0;
  Rng rng(23);
  constexpr int kSteps = 3000;
  for (int step = 0; step < kSteps; ++step) {
    // Whole milliseconds: a partition's failures land on one, and time-outs
    // (whole milliseconds plus 7 µs) never do.
    sim.ScheduleAt(Milliseconds(step), [&] {
      const uint64_t op = rng.Next() % 10;
      if (op < 4) {
        const SiteId from = sites[rng.Next() % sites.size()];
        const SiteId to = sites[rng.Next() % sites.size()];
        const SimTime timeout = Milliseconds(5 + static_cast<int64_t>(rng.Next() % 60)) + 7;
        sim.Spawn("caller", [&, from, to, timeout] {
          const CallHandle call = net.PrepareCall(from, to);
          model[call.id] = ModelCall{from, to};
          slots.insert(call.slot);
          responders.emplace_back(Responder(&net, call, to), call.id);
          RpcResult result = net.WaitCall(call, timeout);
          ModelCall& m = model[call.id];
          ++m.returns;
          m.ok = result.ok;
          m.returned_at = sim.Now();
          return_order.push_back(call.id);
          if (result.ok && static_cast<uint64_t>(result.reply.As<Ping>().value) != call.id) {
            ++wrong_replies;
          }
        });
      } else if (op < 8 && !responders.empty()) {
        // Mostly a recent call's responder (a first reply or a duplicate),
        // otherwise any one ever made (most of them stale).
        const size_t recent = std::min<size_t>(8, responders.size());
        const size_t pick = rng.Next() % 4 != 0
                                ? responders.size() - 1 - rng.Next() % recent
                                : rng.Next() % responders.size();
        const auto& [responder, id] = responders[pick];
        Message reply;
        reply.type = 2;
        reply.payload = Ping{static_cast<int>(id)};
        responder(std::move(reply));
      } else if (op == 8) {
        std::vector<SiteId> group;
        for (SiteId s : sites) {
          if (rng.Next() % 2 == 0) {
            group.push_back(s);
          }
        }
        net.SetPartitions({group});
      } else {
        net.ClearPartitions();
      }
      size_t open = 0;
      for (const auto& [id, m] : model) {
        open += m.returns == 0 ? 1 : 0;
      }
      count_mismatches += open != net.pending_call_count() ? 1 : 0;
    });
  }
  sim.Run();
  EXPECT_EQ(wrong_replies, 0u);
  EXPECT_EQ(count_mismatches, 0u);
  EXPECT_EQ(net.pending_call_count(), 0u);
  size_t ok = 0;
  for (const auto& [id, m] : model) {
    EXPECT_EQ(m.returns, 1) << "call " << id;
    ok += m.ok ? 1 : 0;
  }
  // The script exercised what it claims: successes, failures, slot reuse.
  EXPECT_GT(model.size(), 1000u);
  EXPECT_GT(ok, 100u);
  EXPECT_LT(ok, model.size());
  EXPECT_LT(slots.size(), model.size() / 10);
  // Failures returning at one whole millisecond came from one partition's
  // failure batch, and return in call-id order.
  for (size_t i = 1; i < return_order.size(); ++i) {
    const ModelCall& prev = model[return_order[i - 1]];
    const ModelCall& cur = model[return_order[i]];
    if (!prev.ok && !cur.ok && prev.returned_at == cur.returned_at &&
        cur.returned_at % Milliseconds(1) == 0) {
      EXPECT_LT(return_order[i - 1], return_order[i]);
    }
  }
}

}  // namespace
}  // namespace locus
