// Identifier types shared across subsystems (header-only, no dependencies).

#ifndef SRC_BASE_IDS_H_
#define SRC_BASE_IDS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

namespace locus {

// Site (machine) id: an index into the cluster's site table.
using SiteId = int32_t;
inline constexpr SiteId kNoSite = -1;

// Globally unique process id (assigned by the process manager; encodes the
// birth site so ids never collide across sites).
using Pid = int64_t;
inline constexpr Pid kNoPid = -1;

// Transaction identifier. Section 4.1: "a temporally unique identifier".
// Uniqueness across crashes comes from the originating site's boot epoch;
// uniqueness within a boot from the serial counter.
struct TxnId {
  int32_t site = -1;
  uint32_t epoch = 0;
  uint64_t serial = 0;

  bool valid() const { return site >= 0; }
  friend auto operator<=>(const TxnId&, const TxnId&) = default;
};

inline constexpr TxnId kNoTxn{};

inline std::string ToString(const TxnId& t) {
  if (!t.valid()) {
    return "txn:none";
  }
  return "txn:" + std::to_string(t.site) + "." + std::to_string(t.epoch) + "." +
         std::to_string(t.serial);
}

// Globally unique file identity: (volume, inode). Volume ids are
// cluster-unique, so FileId names a file independent of any storage site.
struct FileId {
  int32_t volume = -1;
  int32_t ino = -1;

  bool valid() const { return volume >= 0 && ino >= 0; }
  friend auto operator<=>(const FileId&, const FileId&) = default;
};

inline constexpr FileId kNoFile{};

// Hash for unordered containers keyed by FileId (lock tables, buffer pools).
struct FileIdHash {
  size_t operator()(const FileId& f) const {
    uint64_t packed = (static_cast<uint64_t>(static_cast<uint32_t>(f.volume)) << 32) |
                      static_cast<uint32_t>(f.ino);
    return std::hash<uint64_t>()(packed);
  }
};

inline std::string ToString(const FileId& f) {
  return "file:" + std::to_string(f.volume) + "/" + std::to_string(f.ino);
}

// A file used by a transaction, with its storage site — one element of the
// file-list the two-phase commit protocol consumes.
struct UsedFile {
  FileId file;
  SiteId storage_site = kNoSite;
  friend auto operator<=>(const UsedFile&, const UsedFile&) = default;
};

}  // namespace locus

#endif  // SRC_BASE_IDS_H_
