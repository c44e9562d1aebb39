// Shell: a scripted command interpreter over the cluster, exercising the
// whole syscall surface (namespace, I/O, record locks, transactions,
// migration) the way an interactive user on a Locus workstation would.
//
// Commands (one per line):
//   mkdir PATH | creat PATH [replicas] | rm PATH | ls PATH
//   write PATH OFFSET TEXT | cat PATH [N] | truncate PATH SIZE
//   lock PATH OFFSET LEN (shared|excl) | begin | commit | abort
//   goto SITE | site
// Unknown commands report an error, like any shell.

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/locus/system.h"

using namespace locus;

namespace {

// A tiny interpreter bound to one process. Paths are opened on demand and
// kept open so locks persist across commands.
class Shell {
 public:
  explicit Shell(Syscalls& sys) : sys_(sys) {}

  void Execute(const std::string& script) {
    std::istringstream lines(script);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      Run(line);
    }
    for (auto& [path, fd] : open_files_) {
      sys_.Close(fd);
    }
  }

 private:
  int FdFor(const std::string& path) {
    auto it = open_files_.find(path);
    if (it != open_files_.end()) {
      return it->second;
    }
    auto fd = sys_.Open(path, {.read = true, .write = true});
    if (!fd.ok()) {
      return -1;
    }
    open_files_[path] = fd.value;
    return fd.value;
  }

  void Run(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    printf("locus[%d]$ %s\n", sys_.CurrentSite(), line.c_str());
    if (cmd == "mkdir") {
      std::string path;
      in >> path;
      Report(sys_.Mkdir(path));
    } else if (cmd == "creat") {
      std::string path;
      int replicas = 1;
      in >> path >> replicas;
      Report(sys_.Creat(path, std::max(replicas, 1)));
    } else if (cmd == "rm") {
      std::string path;
      in >> path;
      Report(sys_.Unlink(path));
    } else if (cmd == "ls") {
      std::string path;
      in >> path;
      auto listing = sys_.ReadDir(path);
      if (!listing.ok()) {
        Report(listing.err);
        return;
      }
      for (const std::string& name : listing.value) {
        printf("  %s\n", name.c_str());
      }
    } else if (cmd == "write") {
      std::string path;
      int64_t offset = 0;
      in >> path >> offset;
      std::string text;
      std::getline(in, text);
      if (!text.empty() && text[0] == ' ') {
        text.erase(0, 1);
      }
      int fd = FdFor(path);
      if (fd < 0) {
        printf("  error: cannot open %s\n", path.c_str());
        return;
      }
      sys_.Seek(fd, offset);
      Report(sys_.WriteString(fd, text));
    } else if (cmd == "cat") {
      std::string path;
      int64_t n = 64;
      in >> path >> n;
      int fd = FdFor(path);
      if (fd < 0) {
        printf("  error: cannot open %s\n", path.c_str());
        return;
      }
      sys_.Seek(fd, 0);
      auto data = sys_.Read(fd, n);
      if (!data.ok()) {
        Report(data.err);
        return;
      }
      printf("  \"%s\"\n", std::string(data.value.begin(), data.value.end()).c_str());
    } else if (cmd == "truncate") {
      std::string path;
      int64_t size = 0;
      in >> path >> size;
      int fd = FdFor(path);
      Report(fd < 0 ? Err::kNoEnt : sys_.Truncate(fd, size));
    } else if (cmd == "lock") {
      std::string path, mode;
      int64_t offset = 0;
      int64_t length = 0;
      in >> path >> offset >> length >> mode;
      int fd = FdFor(path);
      if (fd < 0) {
        printf("  error: cannot open %s\n", path.c_str());
        return;
      }
      sys_.Seek(fd, offset);
      auto r = sys_.Lock(fd, length,
                         mode == "shared" ? LockOp::kShared : LockOp::kExclusive);
      Report(r.err);
    } else if (cmd == "begin") {
      Report(sys_.BeginTrans());
    } else if (cmd == "commit") {
      Report(sys_.EndTrans());
    } else if (cmd == "abort") {
      Report(sys_.AbortTrans());
    } else if (cmd == "goto") {
      SiteId to = 0;
      in >> to;
      Report(sys_.Migrate(to));
    } else if (cmd == "site") {
      printf("  at site %d, pid %lld\n", sys_.CurrentSite(),
             static_cast<long long>(sys_.pid()));
    } else {
      printf("  %s: command not found\n", cmd.c_str());
    }
  }

  void Report(Err err) {
    if (err != Err::kOk) {
      printf("  -> %s\n", ErrName(err));
    }
  }

  Syscalls& sys_;
  std::map<std::string, int> open_files_;
};

constexpr const char* kScript = R"(# A session wandering around the cluster.
site
mkdir /home
creat /home/notes 3
write /home/notes 0 first line from site zero
cat /home/notes 32
goto 2
site
cat /home/notes 32
begin
write /home/notes 0 TRANSACTIONAL REWRITE......
abort
cat /home/notes 32
# The lock adopts the still-uncommitted first line (rule 2): it commits with
# the transaction, under the shorter rewrite.
begin
lock /home/notes 0 32 excl
write /home/notes 0 committed from site two!
commit
cat /home/notes 32
truncate /home/notes 9
cat /home/notes 32
ls /home
mkdir /home/sub
creat /home/sub/x
ls /home
rm /home/sub/x
ls /home/sub
frobnicate /home/notes
)";

}  // namespace

int main() {
  System system(3);
  system.Spawn(0, "shell", [](Syscalls& sys) {
    Shell shell(sys);
    shell.Execute(kScript);
  });
  system.RunFor(Seconds(300));
  return 0;
}
