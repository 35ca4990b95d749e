#include "util/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "util/result.h"

namespace faircap {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad attr");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad attr");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad attr");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailsThenPropagates() {
  FAIRCAP_RETURN_NOT_OK(Status::IOError("disk on fire"));
  return Status::OK();  // unreachable
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  const Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  FAIRCAP_ASSIGN_OR_RETURN(const int half, Half(x));
  return Half(half);
}

TEST(ResultTest, AssignOrReturnMacroChains) {
  const Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  const Result<int> err = Quarter(6);  // 6/2 = 3, odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// Misuse aborts in every build type, Release included: reading the value
// of an error Result, and building a Result from an OK Status (which
// would otherwise report OK while holding no value).
TEST(ResultDeathTest, ReadingAnErrorResultAborts) {
  Result<int> r(Status::NotFound("nope"));
  const Result<int>& cr = r;
  EXPECT_DEATH((void)r.ValueOrDie(), "ok\\(\\)");
  EXPECT_DEATH((void)cr.ValueOrDie(), "ok\\(\\)");
  EXPECT_DEATH((void)*r, "ok\\(\\)");
  EXPECT_DEATH((void)*cr, "ok\\(\\)");
  EXPECT_DEATH((void)Result<int>(Status::IOError("x")).ValueOrDie(),
               "ok\\(\\)");
  Result<std::string> s(Status::Internal("gone"));
  const Result<std::string>& cs = s;
  EXPECT_DEATH((void)s->size(), "ok\\(\\)");
  EXPECT_DEATH((void)cs->size(), "ok\\(\\)");
}

TEST(ResultDeathTest, ResultFromOkStatusAborts) {
  EXPECT_DEATH((void)Result<int>(Status::OK()), "!status_.ok\\(\\)");
}

}  // namespace
}  // namespace faircap
