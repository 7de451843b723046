#include "sim/named_registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace fncc {
namespace {

TEST(NamedRegistryTest, DuplicateNameRejected) {
  NamedRegistry<int> registry("topology");
  registry.Register("dumbbell", "first", 1);
  try {
    registry.Register("dumbbell", "duplicate", 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "topology 'dumbbell' already registered");
  }
  // The first registration stands.
  EXPECT_EQ(registry.At("dumbbell"), 1);
  EXPECT_EQ(registry.Describe("dumbbell"), "first");
}

}  // namespace
}  // namespace fncc
