// Kernel-to-kernel message types and payloads (the "lightweight network
// protocols" of the paper).
//
// LOCUS_MESSAGES is the one declaration of the protocol: each row names the
// message type, its request payload, its reply payload, its route and its
// handler context. The MsgType enum, the MsgSpec binding, the typed builders
// and accessors below, and the kernel's handler registration are all
// generated from it, so a payload that does not match its row fails to
// compile. Reply column: `Err` for a bare error code, `void` for a one-way
// message that is never answered; Route and HandlerContext below explain
// the last two columns.
//
// Row groups, in wire order:
//   - file service: open, read, write, lock, unlock, single-file commit, and
//     the release of a failed process's locks and records;
//   - two-phase commit (section 4.2): prepare, commit, abort at a site;
//   - transaction control plane: member join, file-list merge, abort
//     routing, abort-cascade kill;
//   - replication (section 5.2): page propagation to replicas;
//   - deadlock detector support (section 3.1): wait-for edges;
//   - remote file lifecycle: create, remove;
//   - participant recovery: ask the coordinator for a transaction's outcome
//     (presumed abort when no coordinator log exists);
//   - a hint to a (possibly former) primary update site that the last update
//     open closed, so it may release the primary designation once idle;
//   - immediate durable truncation at the storage site;
//   - replica reintegration (src/recon): version probe and committed-image
//     fetch used to bring a behind replica back to currency.

#ifndef SRC_LOCUS_MESSAGES_H_
#define SRC_LOCUS_MESSAGES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/form/formation.h"
#include "src/fs/intentions.h"
#include "src/lock/lock_list.h"
#include "src/lock/lock_manager.h"
#include "src/locus/errors.h"
#include "src/net/network.h"
#include "src/proc/process.h"
#include "src/storage/disk.h"
#include "src/storage/volume.h"

namespace locus {

#define LOCUS_MESSAGES(X)                                                             \
  X(kOpenReq, OpenRequest, OpenReply, kDirect, kFiber)                                \
  X(kReadReq, ReadRequest, ReadReply, kDirect, kFiber)                                \
  X(kWriteReq, WriteRequest, WriteReply, kDirect, kFiber)                             \
  X(kLockReq, LockRequest, LockReply, kFormation, kFiber)                             \
  X(kUnlockReq, UnlockRequest, Err, kFormation, kFiber)                               \
  X(kCommitFileReq, CommitFileRequest, Err, kDirect, kFiber)                          \
  X(kReleaseProcessReq, ReleaseProcessRequest, Err, kFormation, kFiber)               \
  X(kPrepareReq, PrepareRequest, PrepareReply, kFormation, kFiber)                    \
  X(kCommitTxnReq, CommitTxnRequest, Err, kFormation, kFiber)                         \
  X(kAbortTxnAtSiteReq, AbortTxnAtSiteRequest, Err, kFormation, kFiber)               \
  X(kMemberJoinReq, MemberJoinRequest, MemberJoinReply, kFormation, kFiber)           \
  X(kMergeFileListReq, MergeFileListRequest, MergeFileListReply, kFormation, kFiber)  \
  X(kAbortTxnRouteReq, AbortTxnRouteRequest, AbortTxnRouteReply, kFormation, kFiber)  \
  X(kKillProcessReq, KillProcessRequest, Err, kFormation, kFiber)                     \
  X(kReplicaPropagate, ReplicaPropagateMsg, void, kDirect, kFiber)                    \
  X(kWaitEdgesReq, WaitEdgesRequest, WaitEdgesReply, kDirect, kInline)                \
  X(kCreateFileReq, CreateFileRequest, CreateFileReply, kDirect, kFiber)              \
  X(kRemoveFileReq, RemoveFileRequest, Err, kDirect, kFiber)                          \
  X(kTxnStatusReq, TxnStatusRequest, TxnStatusReply, kFormation, kInline)             \
  X(kReleasePrimaryReq, ReleasePrimaryRequest, void, kFormation, kInline)             \
  X(kTruncateReq, TruncateRequest, Err, kDirect, kFiber)                              \
  X(kReplicaVersionReq, ReplicaVersionRequest, ReplicaVersionReply, kDirect, kFiber)  \
  X(kReplicaFetchReq, ReplicaFetchRequest, ReplicaFetchReply, kDirect, kFiber)

// Rows number from 1 in table order; model-checker traces record these
// values, so new rows go at the end.
enum MsgType : int32_t {
  kNoMsgType = 0,  // Message's default type; no row uses it.
#define LOCUS_MSG_ENUMERATOR(type, request, reply, route, context) type,
  LOCUS_MESSAGES(LOCUS_MSG_ENUMERATOR)
#undef LOCUS_MSG_ENUMERATOR
  kMsgTypeEnd,  // One past the last row.
};
// The formation layer (src/form) cannot include this table; its batch
// envelope takes a wire type above every row.
static_assert(kMsgTypeEnd <= kFormBatchMsgType,
              "message table collides with the formation batch envelope type");

// Route column: kFormation rows (the control plane) go through the sending
// site's FormationQueue, which forwards verbatim to the Network when
// formation is off; kDirect rows always use the Network. The analyzer's
// formation-bypass rule reads this column.
enum class Route { kFormation, kDirect };

// Handler-context column: kFiber rows are served in a fresh kernel process
// (they may block); kInline rows are answered in the delivery event.
enum class HandlerContext { kFiber, kInline };

struct OpenRequest {
  FileId file;
};
struct OpenReply {
  Err err = Err::kOk;
  int64_t size = 0;
};

struct ReadRequest {
  FileId file;
  ByteRange range;
  LockOwner owner;
};
struct ReadReply {
  Err err = Err::kOk;
  std::vector<uint8_t> bytes;
};

struct WriteRequest {
  FileId file;
  int64_t offset = 0;
  std::vector<uint8_t> bytes;
  LockOwner owner;
};
struct WriteReply {
  Err err = Err::kOk;
  int64_t new_size = 0;
};

struct LockRequest {
  FileId file;
  ByteRange range;      // For append-mode requests, range.start is ignored.
  LockOwner owner;
  LockMode mode = LockMode::kShared;
  bool non_transaction = false;
  bool wait = true;
  bool append = false;  // Lock-and-extend: range computed at end of file.
  // Section 4.3: "the page arrives with the lock grant". When positive, the
  // storage site ships up to this many bytes from the granted range's start
  // in the reply, saving the follow-up read exchange. Requesters only set
  // this when formation is on (the fused reply rides a batch envelope).
  int64_t fetch_bytes = 0;
};
struct LockReply {
  Err err = Err::kOk;
  ByteRange granted;    // Actual range (meaningful for append-mode).
  bool fetched = false;          // bytes below are valid (fetch_bytes > 0).
  std::vector<uint8_t> bytes;    // Data shipped with the grant.
};

struct UnlockRequest {
  FileId file;
  ByteRange range;
  LockOwner owner;
};

struct CommitFileRequest {
  FileId file;
  LockOwner owner;
};

struct ReleaseProcessRequest {
  Pid pid;
};

struct PrepareRequest {
  TxnId txn;
  SiteId coordinator = kNoSite;
  std::vector<FileId> files;
};
struct PrepareReply {
  Err err = Err::kOk;
};

struct CommitTxnRequest {
  TxnId txn;
};
struct AbortTxnAtSiteRequest {
  TxnId txn;
};

struct MemberJoinRequest {
  TxnId txn;
  Pid member = kNoPid;
  SiteId member_site = kNoSite;
};
struct MemberJoinReply {
  Err err = Err::kOk;     // kBusy if the top-level process is in transit.
  SiteId forward = kNoSite;  // Better site to retry at.
};

struct MergeFileListRequest {
  TxnId txn;
  Pid exiting_member = kNoPid;
  std::vector<UsedFile> files;
};
struct MergeFileListReply {
  Err err = Err::kOk;     // kBusy if in transit: retry (section 4.1 race).
  SiteId forward = kNoSite;
};

struct AbortTxnRouteRequest {
  TxnId txn;
  std::string reason;
};
struct AbortTxnRouteReply {
  Err err = Err::kOk;
  SiteId forward = kNoSite;
};

struct KillProcessRequest {
  Pid pid;
  TxnId txn;  // Kill only if still a member of this transaction.
};

struct ReplicaPropagateMsg {
  FileId replica_file;  // The inode on the receiving site's volume.
  int64_t new_size = 0;
  // The primary's replication ordinal after this commit. The replica applies
  // only the next-in-sequence propagation (local + 1); a duplicate is dropped
  // and a gap quarantines the replica until reintegration catches it up.
  // 0 means unversioned (pre-reintegration senders); applied unconditionally.
  uint64_t commit_version = 0;
  // slot -> shared page image: one copy of the bytes feeds every replica's
  // message (the simulated wire size is still accounted per message).
  std::vector<std::pair<int32_t, PageRef>> pages;
};

struct WaitEdgesRequest {};
struct WaitEdgesReply {
  std::vector<WaitEdge> edges;
};

// Creates an empty file on the serving site's root volume.
struct CreateFileRequest {};
struct CreateFileReply {
  Err err = Err::kOk;
  FileId file;
};

struct RemoveFileRequest {
  FileId file;
};

struct ReleasePrimaryRequest {
  FileId file;
};

struct TruncateRequest {
  FileId file;
  int64_t size = 0;
};

struct TxnStatusRequest {
  TxnId txn;
};
struct TxnStatusReply {
  int status = 0;  // Cast of TxnStatus; kAborted when no log exists.
};

// kReplicaVersionReq: "what ordinal is your committed copy at?"
struct ReplicaVersionRequest {
  FileId file;  // The replica inode on the responding site's volume.
};
struct ReplicaVersionReply {
  Err err = Err::kOk;
  uint64_t commit_version = 0;
  int64_t committed_size = 0;
};

// kReplicaFetchReq: "ship me your whole committed image."
struct ReplicaFetchRequest {
  FileId file;
};
struct ReplicaFetchReply {
  Err err = Err::kOk;
  uint64_t commit_version = 0;
  int64_t committed_size = 0;
  // slot -> committed page image (shared refs; never working pages).
  std::vector<std::pair<int32_t, PageRef>> pages;
};

// Binds each message type to its row's columns.
template <MsgType kType>
struct MsgSpec;
#define LOCUS_MSG_SPEC(type, request, reply, route, context)            \
  template <>                                                          \
  struct MsgSpec<type> {                                               \
    using Request = request;                                           \
    using Reply = reply;                                               \
    static constexpr Route kRoute = Route::route;                      \
    static constexpr HandlerContext kContext = HandlerContext::context; \
  };
LOCUS_MESSAGES(LOCUS_MSG_SPEC)
#undef LOCUS_MSG_SPEC

template <MsgType kType>
using RequestOf = typename MsgSpec<kType>::Request;
template <MsgType kType>
using ReplyOf = typename MsgSpec<kType>::Reply;

// Wire size of a control message: headers plus a small payload.
inline constexpr int32_t kControlMsgBytes = 96;

// A kType request carrying `request`; payloads with bulk data pass their
// wire size.
template <MsgType kType>
Message MakeMsg(RequestOf<kType> request, int32_t size_bytes = kControlMsgBytes) {
  static_assert(sizeof(RequestOf<kType>) <= Payload::kInlineBytes,
                "request payload outgrows Message's inline Payload");
  return Message{kType, size_bytes, std::move(request), {}};
}

// The reply to a kType request. One-way rows (reply `void`) have none.
template <MsgType kType>
Message MakeReply(ReplyOf<kType> reply, int32_t size_bytes = kControlMsgBytes) {
  static_assert(sizeof(ReplyOf<kType>) <= Payload::kInlineBytes,
                "reply payload outgrows Message's inline Payload");
  return Message{kType, size_bytes, std::move(reply), {}};
}

// Typed payload reads; a message of another type still aborts in
// Message::As.
template <MsgType kType>
const RequestOf<kType>& RequestIn(const Message& m) {
  return m.As<RequestOf<kType>>();
}
template <MsgType kType>
const ReplyOf<kType>& ReplyIn(const Message& m) {
  return m.As<ReplyOf<kType>>();
}

}  // namespace locus

#endif  // SRC_LOCUS_MESSAGES_H_
