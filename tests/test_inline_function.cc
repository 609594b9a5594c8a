// Tests for sim::InlineFunction: the kernel's allocation-free callback.
#include "sim/inline_function.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace incast::sim {
namespace {

TEST(InlineFunction, DefaultIsEmpty) {
  InlineFunction f;
  EXPECT_FALSE(f);
}

TEST(InlineFunction, CallsTheStoredCallable) {
  int hits = 0;
  InlineFunction f{[&hits] { ++hits; }};
  ASSERT_TRUE(f);
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  int hits = 0;
  InlineFunction a{[&hits] { ++hits; }};
  InlineFunction b{std::move(a)};
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the contract under test
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, MoveAssignReplacesAndDestroysTheOldTarget) {
  int destroyed = 0;
  struct CountsDestruction {
    int* destroyed;
    bool moved_from{false};
    CountsDestruction(int* d) : destroyed{d} {}
    CountsDestruction(CountsDestruction&& o) noexcept
        : destroyed{o.destroyed} {
      o.moved_from = true;
    }
    ~CountsDestruction() {
      if (!moved_from) ++*destroyed;
    }
    void operator()() const {}
  };
  {
    InlineFunction a{CountsDestruction{&destroyed}};
    ASSERT_EQ(destroyed, 0);
    a = InlineFunction{[] {}};  // old target must be destroyed exactly once
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, ResetReleasesTheTarget) {
  int destroyed = 0;
  struct CountsDestruction {
    int* destroyed;
    bool moved_from{false};
    CountsDestruction(int* d) : destroyed{d} {}
    CountsDestruction(CountsDestruction&& o) noexcept
        : destroyed{o.destroyed} {
      o.moved_from = true;
    }
    ~CountsDestruction() {
      if (!moved_from) ++*destroyed;
    }
    void operator()() const {}
  };
  InlineFunction f{CountsDestruction{&destroyed}};
  f.reset();
  EXPECT_FALSE(f);
  EXPECT_EQ(destroyed, 1);
  f.reset();  // idempotent
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, HoldsACaptureUpToTheBudget) {
  // A capture of exactly kCaptureBudget bytes must fit (the static_assert
  // rejects anything larger at compile time).
  struct Fat {
    std::byte payload[InlineFunction::kCaptureBudget - sizeof(int*)];
    int* out;
    void operator()() const { *out = 42; }
  };
  static_assert(sizeof(Fat) == InlineFunction::kCaptureBudget);
  int result = 0;
  InlineFunction f{Fat{{}, &result}};
  f();
  EXPECT_EQ(result, 42);
}

TEST(InlineFunction, SelfContainedStateSurvivesTheMove) {
  // The stored callable's state lives inside the buffer, so a moved
  // function must carry it along (relocate, not re-reference).
  struct Counter {
    int count{0};
    int* out;
    void operator()() { *out = ++count; }
  };
  int out = 0;
  InlineFunction a{Counter{0, &out}};
  a();
  EXPECT_EQ(out, 1);
  InlineFunction b{std::move(a)};
  b();
  EXPECT_EQ(out, 2);  // count continued from the moved state
}

TEST(InlineFunction, TrivialCapturesRelocateWhole) {
  // A trivially copyable capture is relocated by copying its own bytes: an
  // odd-sized one keeps every field through a move and a move-assignment.
  struct Odd {
    int* out;
    std::int32_t a, b, c;
    char tail;
    void operator()() const { *out = a + b + c + tail; }
  };
  static_assert(std::is_trivially_copyable_v<Odd>);
  int out = 0;
  InlineFunction a{Odd{&out, 1, 20, 300, 4}};
  InlineFunction b{std::move(a)};
  InlineFunction c;
  c = std::move(b);
  c();
  EXPECT_EQ(out, 325);
}

TEST(InlineFunction, AssigningACallableReplacesTheTargetInPlace) {
  int destroyed = 0;
  struct CountsDestruction {
    int* destroyed;
    bool moved_from{false};
    CountsDestruction(int* d) : destroyed{d} {}
    CountsDestruction(CountsDestruction&& o) noexcept : destroyed{o.destroyed} {
      o.moved_from = true;
    }
    ~CountsDestruction() {
      if (!moved_from) ++*destroyed;
    }
    void operator()() const {}
  };
  int hits = 0;
  InlineFunction f{CountsDestruction{&destroyed}};
  f = [&hits] { ++hits; };  // the old target is destroyed exactly once
  EXPECT_EQ(destroyed, 1);
  f();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace incast::sim
