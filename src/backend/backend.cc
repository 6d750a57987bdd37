#include "backend/backend.h"

namespace cqa {

#if !defined(CQA_WITH_SQLITE)

bool SqliteBackendAvailable() { return false; }

Result<std::unique_ptr<Backend>> MakeSqliteBackend(
    const std::string& path, size_t resident_budget_facts) {
  (void)path;
  (void)resident_budget_facts;
  return Status::Unsupported(
      "this build has no SQLite backend (configure with -DCQA_WITH_SQLITE=ON)");
}

#endif  // !CQA_WITH_SQLITE

}  // namespace cqa
