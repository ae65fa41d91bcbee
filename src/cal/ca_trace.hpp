// CA-traces (Def. 4 of the paper).
//
// A CA-element o.S pairs an object o with a non-empty *set* S of completed
// operations of o — a set of operations that "seem to take effect
// simultaneously". A CA-trace is a sequence of CA-elements. The projection
// T|t keeps the CA-elements mentioning thread t (including the operations of
// *other* threads inside those elements); T|o keeps the elements of object o.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cal/operation.hpp"
#include "cal/symbol.hpp"

namespace cal {

class CaElement {
 public:
  CaElement() = default;
  /// Builds o.S. Operations are canonicalized (sorted); every operation must
  /// be a *completed* operation of object `o` — enforced with assertions in
  /// debug builds and by normalize() here.
  CaElement(Symbol o, std::vector<Operation> ops);

  [[nodiscard]] Symbol object() const noexcept { return object_; }
  [[nodiscard]] const std::vector<Operation>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }

  [[nodiscard]] bool mentions_thread(ThreadId t) const noexcept;
  [[nodiscard]] bool contains(const Operation& op) const noexcept;

  /// The paper's E.swap(t, v, t', v') abbreviation:
  ///   E.{(t, ex(v) ▷ (true,v')), (t', ex(v') ▷ (true,v))}.
  [[nodiscard]] static CaElement swap(Symbol o, Symbol method, ThreadId t,
                                      std::int64_t v, ThreadId t2,
                                      std::int64_t v2);
  /// A singleton element o.{(t, f(arg) ▷ ret)}.
  [[nodiscard]] static CaElement singleton(Symbol o, Operation op);

  friend bool operator==(const CaElement& a, const CaElement& b) noexcept {
    return a.object_ == b.object_ && a.ops_ == b.ops_;
  }
  friend bool operator!=(const CaElement& a, const CaElement& b) noexcept {
    return !(a == b);
  }

  [[nodiscard]] std::size_t hash() const noexcept;

  /// E.g. "E.{(t1, exchange(3) > (true,4)), (t2, exchange(4) > (true,3))}".
  [[nodiscard]] std::string to_string() const;

 private:
  Symbol object_;
  std::vector<Operation> ops_;  // sorted, duplicate-free
};

class CaTrace {
 public:
  CaTrace() = default;
  explicit CaTrace(std::vector<CaElement> elements)
      : elements_(std::move(elements)) {}

  [[nodiscard]] std::size_t size() const noexcept { return elements_.size(); }
  [[nodiscard]] bool empty() const noexcept { return elements_.empty(); }
  [[nodiscard]] const CaElement& operator[](std::size_t i) const {
    return elements_[i];
  }
  [[nodiscard]] const std::vector<CaElement>& elements() const noexcept {
    return elements_;
  }

  /// Moves the elements out, leaving the trace empty.
  [[nodiscard]] std::vector<CaElement> take_elements() noexcept {
    return std::move(elements_);
  }

  void append(CaElement e) { elements_.push_back(std::move(e)); }
  void append(const CaTrace& t) {
    elements_.insert(elements_.end(), t.elements_.begin(), t.elements_.end());
  }

  /// T|t — subsequence of CA-elements mentioning thread t (Def. 4).
  [[nodiscard]] CaTrace project_thread(ThreadId t) const;
  /// T|o — subsequence of CA-elements of object o.
  [[nodiscard]] CaTrace project_object(Symbol o) const;

  /// All operations in all elements, in trace order.
  [[nodiscard]] std::vector<Operation> all_ops() const;

  friend bool operator==(const CaTrace& a, const CaTrace& b) noexcept {
    return a.elements_ == b.elements_;
  }
  friend bool operator!=(const CaTrace& a, const CaTrace& b) noexcept {
    return !(a == b);
  }

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<CaElement> elements_;
};

}  // namespace cal

template <>
struct std::hash<cal::CaElement> {
  std::size_t operator()(const cal::CaElement& e) const noexcept {
    return e.hash();
  }
};
