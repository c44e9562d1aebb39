// Seeded type-erased payload violation (check 10). NOT compiled — CI
// asserts the analyzer flags the std::any record below, and stays quiet on
// the typed record and on the word "any" outside a std:: qualifier.

#include <variant>

namespace lint_fixture {

struct CoordinatorRecord {
  int status = 0;
};
struct PrepareRecord {
  int coordinator = -1;
};

// Violation: the record's type is known only at run time.
struct ErasedLogRecord {
  std::any payload;
};

// Clean: a variant names every type the log may hold.
struct TypedLogRecord {
  std::variant<CoordinatorRecord, PrepareRecord> payload;
  bool any = false;
};

}  // namespace lint_fixture
