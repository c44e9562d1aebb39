// Seeded obligation-pairing violations (split RPC calls and the lock-call
// abort withdraw). NOT compiled — CI asserts the analyzer flags the dropped
// call id, the discarded call id, and the withdraw-less kLockReq calls
// (untyped and typed) below, and stays quiet on the paired/cancelled/
// transferred/suppressed shapes.

namespace lint_fixture {

using SiteId = int;
constexpr int kLockReq = 4;

struct Message {
  int type = 0;
};
Message MakeMsg(int type) { return Message{type}; }

struct RpcResult {
  bool ok = false;
};

struct IdList {
  void push_back(unsigned long) {}
};

struct LockRequest {};

struct FakeFormation {
  unsigned long BeginCall(SiteId, Message) { return 7; }
  RpcResult FinishCall(unsigned long) { return RpcResult{}; }
  RpcResult Call(SiteId, Message) { return RpcResult{}; }
};

class FakeKernel {
 public:
  // Violation: the open call id is dropped on the busy early-return path —
  // the pending reply slot leaks and the peer's answer is never consumed.
  bool LostCall(SiteId s) {
    unsigned long id = form_.BeginCall(s, MakeMsg(1));
    if (id == 0) {
      return false;
    }
    if (busy_) {
      return false;
    }
    (void)form_.FinishCall(id);
    return true;
  }

  // Violation: the call id is discarded outright.
  void FireAndForget(SiteId s) { form_.BeginCall(s, MakeMsg(1)); }

  // Violation: sends a lock request but has no abort-cascade withdraw for
  // the timeout path, so a granted-but-unacknowledged lock would leak.
  bool NakedLock(SiteId s) { return form_.Call(s, MakeMsg(kLockReq)).ok; }

  // Violation: the typed call path names the lock row as a template
  // argument; it still needs the withdraw.
  bool TypedNakedLock(SiteId s) { return Call<kLockReq>(s, LockRequest{}).ok; }

  // Clean: every return path finishes or zero-cancels the id.
  bool PairedCall(SiteId s) {
    unsigned long id = form_.BeginCall(s, MakeMsg(1));
    if (id == 0) {
      return false;
    }
    return form_.FinishCall(id).ok;
  }

  // Clean: ownership of the id transfers into the pending list.
  void BatchedCall(SiteId s) {
    unsigned long id = form_.BeginCall(s, MakeMsg(1));
    pending_.push_back(id);
  }

  // Clean: the failure path withdraws through the abort cascade.
  bool GuardedLock(SiteId s) {
    RpcResult res = form_.Call(s, MakeMsg(kLockReq));
    if (!res.ok) {
      RouteAbort(s);
    }
    return res.ok;
  }

  // Suppressed: justified, so the check must stay quiet.
  void SuppressedDrop(SiteId s) {
    // obligation-ok reply consumed by the batched completion sweep.
    form_.BeginCall(s, MakeMsg(1));
  }

 private:
  template <int kType>
  RpcResult Call(SiteId, LockRequest) {
    return RpcResult{};
  }
  void RouteAbort(SiteId) {}

  FakeFormation form_;
  IdList pending_;
  bool busy_ = false;
};

}  // namespace lint_fixture
