#include "stream/fail_policy.hpp"

#include "util/error.hpp"

namespace ifet {

const char* fail_policy_name(FailPolicy policy) {
  switch (policy) {
    case FailPolicy::kThrow:
      return "throw";
    case FailPolicy::kSkipStep:
      return "skip";
    case FailPolicy::kNearestGood:
      return "nearest";
  }
  return "?";
}

FailPolicy parse_fail_policy(const std::string& name) {
  if (name == "throw") return FailPolicy::kThrow;
  if (name == "skip" || name == "skip-step") return FailPolicy::kSkipStep;
  if (name == "nearest" || name == "nearest-good") {
    return FailPolicy::kNearestGood;
  }
  throw Error("unknown fail policy '" + name +
              "' (expected throw, skip, or nearest)");
}

}  // namespace ifet
