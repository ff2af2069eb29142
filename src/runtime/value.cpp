#include "runtime/value.h"

#include <ostream>
#include <sstream>

namespace ba {
namespace {

std::size_t hash_combine(std::size_t seed, std::size_t h) {
  // Boost-style combiner; good enough for container keying. Kept bit-for-bit
  // identical to the pre-COW representation so cached hashes are observably
  // the same values the seed computed.
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

ValueVec& Value::as_vec() {
  VecPtr& p = std::get<VecPtr>(rep_);
  if (p.use_count() > 1) p = std::make_shared<VecRep>(*p);
  // From here the caller holds a mutable reference into the payload, which
  // can change at any later point: drop the cached hash and never cache on
  // this payload object again.
  p->cached_hash.store(0, std::memory_order_relaxed);
  p->hash_cacheable = false;
  return p->elems;
}

bool Value::shares_rep_with(const Value& other) const {
  const void* id = payload_identity();
  return id != nullptr && id == other.payload_identity();
}

const void* Value::payload_identity() const {
  if (is_str()) return std::get<StrPtr>(rep_).get();
  if (is_vec()) return std::get<VecPtr>(rep_).get();
  return nullptr;
}

std::optional<int> Value::try_bit() const {
  if (is_bool()) return as_bool() ? 1 : 0;
  if (is_int() && (as_int() == 0 || as_int() == 1)) {
    return static_cast<int>(as_int());
  }
  return std::nullopt;
}

std::string Value::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::size_t Value::hash() const {
  std::size_t seed = static_cast<std::size_t>(kind());
  switch (kind()) {
    case Kind::kNull:
      break;
    case Kind::kBool:
      seed = hash_combine(seed, std::hash<bool>{}(as_bool()));
      break;
    case Kind::kInt:
      seed = hash_combine(seed, std::hash<std::int64_t>{}(as_int()));
      break;
    case Kind::kStr: {
      const StrRep& rep = *std::get<StrPtr>(rep_);
      std::size_t h = rep.cached_hash.load(std::memory_order_relaxed);
      if (h == 0) {
        h = hash_combine(seed, std::hash<std::string>{}(rep.str));
        if (h != 0) rep.cached_hash.store(h, std::memory_order_relaxed);
      }
      return h;
    }
    case Kind::kVec: {
      const VecRep& rep = *std::get<VecPtr>(rep_);
      if (rep.hash_cacheable) {
        const std::size_t h = rep.cached_hash.load(std::memory_order_relaxed);
        if (h != 0) return h;
      }
      for (const Value& e : rep.elems) seed = hash_combine(seed, e.hash());
      if (rep.hash_cacheable && seed != 0) {
        rep.cached_hash.store(seed, std::memory_order_relaxed);
      }
      break;
    }
  }
  return seed;
}

bool operator==(const Value& a, const Value& b) {
  if (a.rep_.index() != b.rep_.index()) return false;
  switch (a.kind()) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kBool:
      return a.as_bool() == b.as_bool();
    case Value::Kind::kInt:
      return a.as_int() == b.as_int();
    case Value::Kind::kStr: {
      const auto& pa = std::get<Value::StrPtr>(a.rep_);
      const auto& pb = std::get<Value::StrPtr>(b.rep_);
      return pa == pb || pa->str == pb->str;
    }
    case Value::Kind::kVec: {
      const auto& pa = std::get<Value::VecPtr>(a.rep_);
      const auto& pb = std::get<Value::VecPtr>(b.rep_);
      return pa == pb || pa->elems == pb->elems;
    }
  }
  return false;
}

std::strong_ordering operator<=>(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return a.kind() <=> b.kind();
  switch (a.kind()) {
    case Value::Kind::kNull:
      return std::strong_ordering::equal;
    case Value::Kind::kBool:
      return a.as_bool() <=> b.as_bool();
    case Value::Kind::kInt:
      return a.as_int() <=> b.as_int();
    case Value::Kind::kStr:
      if (std::get<Value::StrPtr>(a.rep_) == std::get<Value::StrPtr>(b.rep_)) {
        return std::strong_ordering::equal;
      }
      return a.as_str().compare(b.as_str()) <=> 0;
    case Value::Kind::kVec: {
      if (std::get<Value::VecPtr>(a.rep_) == std::get<Value::VecPtr>(b.rep_)) {
        return std::strong_ordering::equal;
      }
      const ValueVec& va = a.as_vec();
      const ValueVec& vb = b.as_vec();
      for (std::size_t i = 0; i < va.size() && i < vb.size(); ++i) {
        auto c = va[i] <=> vb[i];
        if (c != std::strong_ordering::equal) return c;
      }
      return va.size() <=> vb.size();
    }
  }
  return std::strong_ordering::equal;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return os << "_";
    case Value::Kind::kBool:
      return os << (v.as_bool() ? "1" : "0");
    case Value::Kind::kInt:
      return os << v.as_int();
    case Value::Kind::kStr:
      return os << '"' << v.as_str() << '"';
    case Value::Kind::kVec: {
      os << '[';
      bool first = true;
      for (const Value& e : v.as_vec()) {
        if (!first) os << ',';
        first = false;
        os << e;
      }
      return os << ']';
    }
  }
  return os;
}

}  // namespace ba
