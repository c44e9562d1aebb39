// Seeded formation-bypass violations (rule 5): this fake kernel file sends
// control-plane messages (rows whose route column in src/locus/messages.h is
// kFormation) directly through the Network instead of the per-site
// FormationQueue. NOT compiled — CI asserts locus_analyze flags the blocks
// below and honors the form-ok suppression.

#include <cstdint>

namespace lint_fixture {

using SiteId = int;
constexpr int kPrepareReq = 8;
constexpr int kCommitTxnReq = 9;
constexpr int kLockReq = 4;
constexpr int kMemberJoinReq = 11;
constexpr int kReplicaPropagate = 32;

struct Message {
  int type = 0;
};

Message MakeMsg(int type) { return Message{type}; }

struct FakeNetwork {
  void Send(SiteId, SiteId, Message) {}
  bool Call(SiteId, SiteId, Message) { return true; }
};

class FakeKernel {
 public:
  // Violation: prepare fan-out bypassing the formation queue.
  void Prepare(SiteId s) { (void)net_.Call(0, s, MakeMsg(kPrepareReq)); }

  // Violation: the message type wraps onto the next line; the two-line
  // window must still connect it to the direct Call.
  void CommitNotice(SiteId s) {
    (void)net_.Call(0, s,
                    MakeMsg(kCommitTxnReq));
  }

  // Violation: direct lock request datagram.
  void LockShip(SiteId s) { net().Send(0, s, MakeMsg(kLockReq)); }

  // Violation: member join is routed kFormation in the message table's
  // route column.
  bool JoinMember(SiteId s) { return net_.Call(0, s, MakeMsg(kMemberJoinReq)); }

  // Suppressed: deliberate bypass, justified on the line above.
  void Bootstrap(SiteId s) {
    // form-ok pre-boot path, the queue does not exist yet.
    (void)net_.Call(0, s, MakeMsg(kPrepareReq));
  }

  // Clean: replica propagation is data plane, not a flagged protocol type.
  void Propagate(SiteId s) { net_.Send(0, s, MakeMsg(kReplicaPropagate)); }

 private:
  FakeNetwork& net() { return net_; }
  FakeNetwork net_;
};

}  // namespace lint_fixture
