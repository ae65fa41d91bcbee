#include "cal/ca_trace.hpp"

#include <algorithm>
#include <cassert>

namespace cal {

CaElement::CaElement(Symbol o, std::vector<Operation> ops)
    : object_(o), ops_(std::move(ops)) {
  for ([[maybe_unused]] const Operation& op : ops_) {
    assert(op.object == o && "CA-element operation on a different object");
    assert(!op.is_pending() && "CA-elements contain completed operations");
  }
  std::sort(ops_.begin(), ops_.end());
  ops_.erase(std::unique(ops_.begin(), ops_.end()), ops_.end());
}

bool CaElement::mentions_thread(ThreadId t) const noexcept {
  return std::any_of(ops_.begin(), ops_.end(),
                     [t](const Operation& op) { return op.tid == t; });
}

bool CaElement::contains(const Operation& op) const noexcept {
  return std::binary_search(ops_.begin(), ops_.end(), op);
}

CaElement CaElement::swap(Symbol o, Symbol method, ThreadId t, std::int64_t v,
                          ThreadId t2, std::int64_t v2) {
  assert(t != t2 && "swap requires two distinct threads");
  return CaElement(
      o, {Operation::make(t, o, method, Value::integer(v),
                          Value::pair(true, v2)),
          Operation::make(t2, o, method, Value::integer(v2),
                          Value::pair(true, v))});
}

CaElement CaElement::singleton(Symbol o, Operation op) {
  // Not `{std::move(op)}`: an initializer list would copy the operation.
  std::vector<Operation> ops;
  ops.reserve(1);
  ops.push_back(std::move(op));
  return CaElement(o, std::move(ops));
}

std::size_t CaElement::hash() const noexcept {
  std::size_t h = std::hash<std::uint32_t>{}(object_.id());
  for (const Operation& op : ops_) {
    h ^= op.hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

std::string CaElement::to_string() const {
  std::string out = object_.str() + ".{";
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (i != 0) out += ", ";
    out += ops_[i].to_string();
  }
  out += "}";
  return out;
}

CaTrace CaTrace::project_thread(ThreadId t) const {
  CaTrace out;
  for (const CaElement& e : elements_) {
    if (e.mentions_thread(t)) out.append(e);
  }
  return out;
}

CaTrace CaTrace::project_object(Symbol o) const {
  CaTrace out;
  for (const CaElement& e : elements_) {
    if (e.object() == o) out.append(e);
  }
  return out;
}

std::vector<Operation> CaTrace::all_ops() const {
  std::size_t n = 0;
  for (const CaElement& e : elements_) n += e.size();
  std::vector<Operation> out;
  out.reserve(n);
  for (const CaElement& e : elements_) {
    out.insert(out.end(), e.ops().begin(), e.ops().end());
  }
  return out;
}

std::string CaTrace::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    out += std::to_string(i) + ": " + elements_[i].to_string() + "\n";
  }
  return out;
}

}  // namespace cal
