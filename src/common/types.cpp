#include "common/types.h"

namespace msh::detail {

void contract_fail(const char* kind, const char* expr, const char* file,
                   int line) {
  throw ContractError(std::string(kind) + " failed: " + expr + " at " + file +
                      ":" + std::to_string(line));
}

}  // namespace msh::detail
