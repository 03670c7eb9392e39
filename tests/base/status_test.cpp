#include "base/status.hpp"

#include <gtest/gtest.h>

namespace legion {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("object L7.3");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "object L7.3");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: object L7.3");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(NotFoundError("a"), NotFoundError("b"));
  EXPECT_FALSE(NotFoundError("a") == TimeoutError("a"));
}

struct NamedCodeCase {
  StatusCode code;
  std::string_view name;
};

// Without a printer gtest dumps the struct's bytes, the string_view pointer
// included, and gtest_discover_tests turns that dump into the ctest name —
// which then changes on every build. Print the name instead.
void PrintTo(const NamedCodeCase& c, std::ostream* os) { *os << c.name; }

class StatusCodeNames : public ::testing::TestWithParam<NamedCodeCase> {};

TEST_P(StatusCodeNames, EveryCodeHasDistinctName) {
  EXPECT_EQ(to_string(GetParam().code), GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, StatusCodeNames,
    ::testing::Values(
        NamedCodeCase{StatusCode::kOk, "OK"},
        NamedCodeCase{StatusCode::kInvalidArgument, "INVALID_ARGUMENT"},
        NamedCodeCase{StatusCode::kNotFound, "NOT_FOUND"},
        NamedCodeCase{StatusCode::kAlreadyExists, "ALREADY_EXISTS"},
        NamedCodeCase{StatusCode::kPermissionDenied, "PERMISSION_DENIED"},
        NamedCodeCase{StatusCode::kFailedPrecondition, "FAILED_PRECONDITION"},
        NamedCodeCase{StatusCode::kUnavailable, "UNAVAILABLE"},
        NamedCodeCase{StatusCode::kStaleBinding, "STALE_BINDING"},
        NamedCodeCase{StatusCode::kTimeout, "TIMEOUT"},
        NamedCodeCase{StatusCode::kUnimplemented, "UNIMPLEMENTED"},
        NamedCodeCase{StatusCode::kAborted, "ABORTED"},
        NamedCodeCase{StatusCode::kOutOfRange, "OUT_OF_RANGE"},
        NamedCodeCase{StatusCode::kResourceExhausted, "RESOURCE_EXHAUSTED"},
        NamedCodeCase{StatusCode::kInternal, "INTERNAL"}));

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = TimeoutError("too slow");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, TakeMovesValueOut) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

TEST(ResultTest, ValueOrPrefersValue) {
  Result<int> r = 7;
  EXPECT_EQ(r.value_or(-1), 7);
}

Status Inner(bool fail) {
  if (fail) return UnavailableError("inner failed");
  return OkStatus();
}

Status Outer(bool fail) {
  LEGION_RETURN_IF_ERROR(Inner(fail));
  return OkStatus();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Outer(false).ok());
  EXPECT_EQ(Outer(true).code(), StatusCode::kUnavailable);
}

Result<int> Doubled(Result<int> in) {
  LEGION_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(InternalError("nope")).status().code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace legion
