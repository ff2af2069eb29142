#include "async/protocols.h"

#include "async/ben_or.h"
#include "async/bracha.h"
#include "async/coin.h"

namespace ba::async {

const std::vector<AsyncProtocolInfo>& async_protocols() {
  static const std::vector<AsyncProtocolInfo> kProtocols = {
      {.name = "ben-or",
       .summary = "Ben-Or '83 randomized binary consensus, seeded ideal coin",
       .randomized = true,
       .make =
           [](std::uint64_t coin_seed) {
             return ben_or_factory({.coin = ideal_coin(coin_seed)});
           }},
      {.name = "ben-or-broken",
       .summary = "Ben-Or with deliberately unsound thresholds (certificate "
                  "target; safe under fifo, violated by adversarial order)",
       .randomized = true,
       .deliberately_broken = true,
       .make =
           [](std::uint64_t coin_seed) {
             return ben_or_factory(
                 {.coin = ideal_coin(coin_seed), .broken = true});
           }},
      {.name = "ben-or-local",
       .summary = "Ben-Or '83 with independent per-process local coins",
       .randomized = true,
       .make =
           [](std::uint64_t coin_seed) {
             return ben_or_factory({.coin = local_coin(coin_seed)});
           }},
      {.name = "bracha",
       .summary = "Bracha echo-ready acceptance gadget (deterministic)",
       .make = [](std::uint64_t) { return bracha_factory(); }},
  };
  return kProtocols;
}

const AsyncProtocolInfo* find_async_protocol(const std::string& name) {
  for (const AsyncProtocolInfo& info : async_protocols()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const char* async_protocol_list() {
  static const std::string list = [] {
    std::string out;
    for (const AsyncProtocolInfo& info : async_protocols()) {
      if (!out.empty()) out += " | ";
      out += info.name;
    }
    return out;
  }();
  return list.c_str();
}

}  // namespace ba::async
