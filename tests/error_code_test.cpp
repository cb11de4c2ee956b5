// Stable numeric codes on the error taxonomy (support/check.hpp).
//
// The numbers asserted here are a wire contract shared by the multi-process
// backend's TaskError frames and the plan service's Error responses:
// append-only, never renumbered. If one of these expectations fails, the
// enum was renumbered — fix the enum, not the test.

#include <gtest/gtest.h>

#include <string>

#include "constraint/vocab.hpp"
#include "runtime/executor.hpp"
#include "support/check.hpp"

namespace dpart {
namespace {

TEST(ErrorCodeTest, NumericValuesAreStable) {
  EXPECT_EQ(static_cast<int>(ErrorCode::Internal), 1);
  EXPECT_EQ(static_cast<int>(ErrorCode::TaskFailure), 2);
  EXPECT_EQ(static_cast<int>(ErrorCode::PartitionViolation), 3);
  EXPECT_EQ(static_cast<int>(ErrorCode::EvalFailure), 4);
  EXPECT_EQ(static_cast<int>(ErrorCode::CheckpointCorruption), 5);
  EXPECT_EQ(static_cast<int>(ErrorCode::Transport), 6);
  EXPECT_EQ(static_cast<int>(ErrorCode::NodeLoss), 7);
  EXPECT_EQ(static_cast<int>(ErrorCode::BadRequest), 8);
  EXPECT_EQ(static_cast<int>(ErrorCode::Overloaded), 9);
  EXPECT_EQ(static_cast<int>(ErrorCode::Infeasible), 10);
}

TEST(ErrorCodeTest, EveryTaxonomyClassReportsItsCode) {
  EXPECT_EQ(Error("x").errorCode(), ErrorCode::Internal);
  EXPECT_EQ(TaskFailure("x").errorCode(), ErrorCode::TaskFailure);
  EXPECT_EQ(PartitionViolation("x").errorCode(),
            ErrorCode::PartitionViolation);
  EXPECT_EQ(EvalFailure("x").errorCode(), ErrorCode::EvalFailure);
  EXPECT_EQ(CheckpointCorruption("x").errorCode(),
            ErrorCode::CheckpointCorruption);
  EXPECT_EQ(TransportError(3, "x").errorCode(), ErrorCode::Transport);
  EXPECT_EQ(runtime::NodeLossError(3, "x").errorCode(), ErrorCode::NodeLoss);
  EXPECT_EQ(constraint::InfeasibleError("x").errorCode(),
            ErrorCode::Infeasible);
}

TEST(ErrorCodeTest, CodeSurvivesCatchAsBase) {
  try {
    throw TransportError(5, "peer closed mid-frame");
  } catch (const Error& e) {
    EXPECT_EQ(e.errorCode(), ErrorCode::Transport);
  }
}

TEST(ErrorCodeTest, ToStringNamesEveryCode) {
  EXPECT_STREQ(toString(ErrorCode::Internal), "Error");
  EXPECT_STREQ(toString(ErrorCode::TaskFailure), "TaskFailure");
  EXPECT_STREQ(toString(ErrorCode::PartitionViolation), "PartitionViolation");
  EXPECT_STREQ(toString(ErrorCode::EvalFailure), "EvalFailure");
  EXPECT_STREQ(toString(ErrorCode::CheckpointCorruption),
               "CheckpointCorruption");
  EXPECT_STREQ(toString(ErrorCode::Transport), "TransportError");
  EXPECT_STREQ(toString(ErrorCode::NodeLoss), "NodeLossError");
  EXPECT_STREQ(toString(ErrorCode::BadRequest), "BadRequest");
  EXPECT_STREQ(toString(ErrorCode::Overloaded), "Overloaded");
  EXPECT_STREQ(toString(ErrorCode::Infeasible), "Infeasible");
  EXPECT_STREQ(toString(static_cast<ErrorCode>(60000)), "?");
}

// The round trip a failure takes across a process boundary: caught as the
// base class, encoded as (code, what), rethrown on the other side as the
// same concrete type with the message byte-identical.
TEST(ErrorCodeTest, ThrowErrorCodeRoundTripsTheSupportTaxonomy) {
  const auto roundTrip = [](const Error& original) {
    try {
      throwErrorCode(original.errorCode(), original.what());
    } catch (const Error& rethrown) {
      EXPECT_EQ(rethrown.errorCode(), original.errorCode());
      EXPECT_STREQ(rethrown.what(), original.what());
      return;
    }
    FAIL() << "throwErrorCode did not throw";
  };
  ErrorContext ctx;
  ctx.site = "task:flux:3";
  ctx.piece = 2;
  roundTrip(Error("invariant broken"));
  roundTrip(TaskFailure("task died", ctx));
  roundTrip(PartitionViolation("pieces overlap", ctx));
  roundTrip(EvalFailure("unbound symbol", ctx));
  roundTrip(CheckpointCorruption("bad magic"));
  roundTrip(TransportError(4, "recv timed out"));
  roundTrip(BadRequest("replication bounds are inverted"));
}

TEST(ErrorCodeTest, ThrowErrorCodeRestoresTheConcreteType) {
  EXPECT_THROW(throwErrorCode(ErrorCode::PartitionViolation, "x"),
               PartitionViolation);
  EXPECT_THROW(throwErrorCode(ErrorCode::TaskFailure, "x"), TaskFailure);
  // TransportError keeps the node id it is reconstructed with.
  try {
    throwErrorCode(ErrorCode::Transport, "send failed", /*node=*/7);
  } catch (const TransportError& e) {
    EXPECT_EQ(e.node(), 7u);
  }
  // Codes whose class lives above support/ fall through to plain Error;
  // decode sites that speak them (coordinator, service client) handle them
  // before calling throwErrorCode.
  try {
    throwErrorCode(ErrorCode::NodeLoss, "node 2 presumed dead");
  } catch (const Error& e) {
    EXPECT_EQ(e.errorCode(), ErrorCode::Internal);
    EXPECT_STREQ(e.what(), "node 2 presumed dead");
  }
}

}  // namespace
}  // namespace dpart
