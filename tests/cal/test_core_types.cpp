// Symbol, Value, Action, Operation, CaElement/CaTrace unit tests.
#include <gtest/gtest.h>

#include <unordered_set>
#include <utility>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/spec.hpp"
#include "cal/symbol.hpp"
#include "cal/value.hpp"

namespace cal {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

TEST(SymbolTest, InterningIsStable) {
  Symbol a{"push"};
  Symbol b{"push"};
  Symbol c{"pop"};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.str(), "push");
  EXPECT_EQ(c.str(), "pop");
}

TEST(SymbolTest, NullSymbolDistinctFromInterned) {
  Symbol null;
  EXPECT_TRUE(null.is_null());
  EXPECT_NE(null, Symbol{""});  // even "" gets a real id
  EXPECT_EQ(null.str(), "");
}

TEST(SymbolTest, UsableAsHashKey) {
  std::unordered_set<Symbol> set;
  set.insert(Symbol{"a"});
  set.insert(Symbol{"b"});
  set.insert(Symbol{"a"});
  EXPECT_EQ(set.size(), 2u);
}

TEST(ValueTest, KindsCompareUnequal) {
  EXPECT_NE(Value::unit(), Value::boolean(false));
  EXPECT_NE(Value::boolean(true), iv(1));
  EXPECT_NE(iv(1), Value::pair(true, 1));
  EXPECT_NE(Value::vec({1}), iv(1));
}

TEST(ValueTest, PairAccessors) {
  Value p = Value::pair(true, 7);
  EXPECT_TRUE(p.pair_ok());
  EXPECT_EQ(p.pair_int(), 7);
  EXPECT_EQ(p.to_string(), "(true,7)");
}

TEST(ValueTest, InfinityPrintsAsInf) {
  EXPECT_EQ(iv(kInfinity).to_string(), "inf");
  EXPECT_EQ(Value::pair(true, kInfinity).to_string(), "(true,inf)");
}

TEST(ValueTest, OrderingIsTotal) {
  std::vector<Value> vals = {Value::unit(), Value::boolean(false),
                             Value::boolean(true), iv(-1), iv(3),
                             Value::pair(false, 0), Value::pair(true, 0),
                             Value::vec({1, 2})};
  for (std::size_t i = 0; i < vals.size(); ++i) {
    for (std::size_t j = 0; j < vals.size(); ++j) {
      const bool lt = vals[i] < vals[j];
      const bool gt = vals[j] < vals[i];
      const bool eq = vals[i] == vals[j];
      EXPECT_EQ(static_cast<int>(lt) + static_cast<int>(gt) +
                    static_cast<int>(eq),
                1)
          << i << " vs " << j;
    }
  }
}

TEST(ValueTest, HashDistinguishesCommonValues) {
  EXPECT_NE(iv(1).hash(), iv(2).hash());
  EXPECT_NE(Value::pair(true, 1).hash(), Value::pair(false, 1).hash());
  EXPECT_EQ(iv(7).hash(), iv(7).hash());
}

std::vector<std::int64_t> key_of(const std::vector<Value>& values) {
  std::vector<std::int64_t> out;
  for (const Value& v : values) v.encode(out);
  return out;
}

TEST(ValueTest, KeySeparatesValuesThatHashAlike) {
  // hash() is not injective: (false,0) and (true,63) share a hash, and so
  // do (false,7) and (true,72). A streaming check that keyed committed
  // pending returns by hash merged two explanations differing only in
  // which dequeue took 63 (examples/histories/queue_pending_63.history).
  const std::pair<Value, Value> pairs[] = {
      {Value::pair(false, 0), Value::pair(true, 63)},
      {Value::pair(false, 7), Value::pair(true, 72)}};
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(key_of({a}), key_of({b})) << a.to_string();
    // Swapping the two values between positions changes the key too.
    EXPECT_NE(key_of({a, b}), key_of({b, a})) << a.to_string();
    EXPECT_EQ(key_of({a, b}), key_of({a, b}));
  }
}

TEST(ValueTest, KeyIsExactAcrossKindsAndDelimitsVectors) {
  const std::vector<Value> values = {
      Value::unit(),        Value::boolean(false), Value::boolean(true),
      iv(0),                iv(1),                 iv(kInfinity),
      Value::pair(false, 1), Value::pair(true, 1), Value::vec({}),
      Value::vec({0}),      Value::vec({0, 0}),    Value::vec({1, 2})};
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(key_of({a}) == key_of({b}), a == b)
          << a.to_string() << " vs " << b.to_string();
    }
  }
  // A vector's length ends its key: [1],[] and [],[1] differ.
  EXPECT_NE(key_of({Value::vec({1}), Value::vec({})}),
            key_of({Value::vec({}), Value::vec({1})}));
}

TEST(ActionTest, ToStringFormats) {
  Action inv = Action::invoke(1, Symbol{"E"}, Symbol{"exchange"}, iv(3));
  Action res =
      Action::respond(1, Symbol{"E"}, Symbol{"exchange"},
                      Value::pair(true, 4));
  EXPECT_EQ(inv.to_string(), "(t1, inv E.exchange(3))");
  EXPECT_EQ(res.to_string(), "(t1, res E.exchange > (true,4))");
}

TEST(OperationTest, PendingAndCompleted) {
  Operation p = Operation::pending(1, Symbol{"E"}, Symbol{"exchange"}, iv(3));
  EXPECT_TRUE(p.is_pending());
  Operation c = Operation::make(1, Symbol{"E"}, Symbol{"exchange"}, iv(3),
                                Value::pair(false, 3));
  EXPECT_FALSE(c.is_pending());
  EXPECT_NE(p, c);
  EXPECT_LT(p, c);  // pending sorts before completed
}

TEST(CaElementTest, CanonicalizesOperationOrder) {
  const Symbol e{"E"};
  const Symbol f{"exchange"};
  Operation a = Operation::make(1, e, f, iv(1), Value::pair(true, 2));
  Operation b = Operation::make(2, e, f, iv(2), Value::pair(true, 1));
  EXPECT_EQ(CaElement(e, {a, b}), CaElement(e, {b, a}));
  EXPECT_EQ(CaElement(e, {a, b}).hash(), CaElement(e, {b, a}).hash());
}

TEST(CaElementTest, DeduplicatesIdenticalOps) {
  const Symbol e{"E"};
  Operation a =
      Operation::make(1, e, Symbol{"exchange"}, iv(1), Value::pair(false, 1));
  EXPECT_EQ(CaElement(e, {a, a}).size(), 1u);
}

TEST(CaElementTest, SwapAbbreviation) {
  const Symbol e{"E"};
  CaElement s = CaElement::swap(e, Symbol{"exchange"}, 1, 3, 2, 4);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.mentions_thread(1));
  EXPECT_TRUE(s.mentions_thread(2));
  EXPECT_FALSE(s.mentions_thread(3));
  EXPECT_TRUE(s.contains(Operation::make(1, e, Symbol{"exchange"}, iv(3),
                                         Value::pair(true, 4))));
}

TEST(CaTraceTest, ThreadProjectionKeepsWholeElements) {
  const Symbol e{"E"};
  const Symbol f{"exchange"};
  CaTrace t;
  t.append(CaElement::swap(e, f, 1, 3, 2, 4));
  t.append(CaElement::singleton(
      e, Operation::make(3, e, f, iv(7), Value::pair(false, 7))));
  // T|t1 contains the swap element *including t2's operation* (Def. 4).
  CaTrace p1 = t.project_thread(1);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0].size(), 2u);
  EXPECT_EQ(t.project_thread(3).size(), 1u);
  EXPECT_EQ(t.project_thread(9).size(), 0u);
}

TEST(CaTraceTest, ObjectProjection) {
  const Symbol e{"E"};
  const Symbol s{"S"};
  CaTrace t;
  t.append(CaElement::singleton(
      e, Operation::make(1, e, Symbol{"exchange"}, iv(1),
                         Value::pair(false, 1))));
  t.append(CaElement::singleton(
      s, Operation::make(1, s, Symbol{"push"}, iv(1), Value::boolean(true))));
  EXPECT_EQ(t.project_object(e).size(), 1u);
  EXPECT_EQ(t.project_object(s).size(), 1u);
}

TEST(CaTraceTest, AllOpsFlattens) {
  const Symbol e{"E"};
  CaTrace t;
  t.append(CaElement::swap(e, Symbol{"exchange"}, 1, 3, 2, 4));
  EXPECT_EQ(t.all_ops().size(), 2u);
}

TEST(CoreTypes, HashStateSeparatesShortStates) {
  // The un-hardened FNV fold (no length seed, no avalanche) collided on
  // short states. Derivation of an exact collision under the old fold
  // h = ((c ^ x0) * p ^ x1) * p: pick {1, 0} vs {0, y} and solve for y —
  // y = (c*p) ^ ((c^1)*p). The hardened hash must separate that pair and
  // the common truncation/zero-extension shapes.
  const std::uint64_t c = 0xcbf29ce484222325ull;  // FNV offset basis
  const std::uint64_t p = 0x100000001b3ull;       // FNV prime
  const auto y = static_cast<std::int64_t>((c * p) ^ ((c ^ 1ull) * p));
  EXPECT_NE(hash_state({0, y}), hash_state({1, 0}));
  EXPECT_NE(hash_state({}), hash_state({0}));
  EXPECT_NE(hash_state({0}), hash_state({0, 0}));
  EXPECT_NE(hash_state({5}), hash_state({5, 0}));
  EXPECT_NE(hash_state({1, 2}), hash_state({2, 1}));
}

}  // namespace
}  // namespace cal
