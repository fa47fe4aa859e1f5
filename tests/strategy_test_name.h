// Test-name helper for suites parametrized over the strategy table:
//
//   INSTANTIATE_TEST_SUITE_P(AllStrategies, Suite,
//                            ::testing::ValuesIn(AllStrategies()),
//                            StrategyTestName);
//
// names each instance after the strategy's table name, reduced to the
// alphanumerics gtest allows: "I-PCS" -> "IPcs", "SPER-SK" -> "SperSk".

#ifndef PIER_TESTS_STRATEGY_TEST_NAME_H_
#define PIER_TESTS_STRATEGY_TEST_NAME_H_

#include <cctype>
#include <string>

#include <gtest/gtest.h>

#include "core/pier_pipeline.h"

namespace pier {

inline std::string StrategyTestName(
    const ::testing::TestParamInfo<PierStrategy>& info) {
  std::string out;
  bool word_start = true;
  for (const char* c = ToString(info.param); *c != '\0'; ++c) {
    if (*c == '-') {
      word_start = true;
      continue;
    }
    const auto u = static_cast<unsigned char>(*c);
    out += static_cast<char>(word_start ? std::toupper(u) : std::tolower(u));
    word_start = false;
  }
  return out;
}

}  // namespace pier

#endif  // PIER_TESTS_STRATEGY_TEST_NAME_H_
