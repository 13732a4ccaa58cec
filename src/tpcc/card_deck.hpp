// The TPC-C transaction mix as a shuffled card deck: 10 New-Order, 10
// Payment and one each of Order-Status, Delivery and Stock-Level per 23
// draws, meeting the spec's minimum-percentage mix (45/43/4/4/4). Shared by
// the single-instance and fleet drivers so both draw the same sequence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "tpcc/tpcc_txns.hpp"

namespace vdb::tpcc {

class CardDeck {
 public:
  /// Fills the deck and gives it its first shuffle from `rng`.
  explicit CardDeck(Rng& rng) {
    std::size_t i = 0;
    for (int k = 0; k < 10; ++k) cards_[i++] = TxnType::kNewOrder;
    for (int k = 0; k < 10; ++k) cards_[i++] = TxnType::kPayment;
    cards_[i++] = TxnType::kOrderStatus;
    cards_[i++] = TxnType::kDelivery;
    cards_[i++] = TxnType::kStockLevel;
    shuffle(rng);
  }

  /// The next card; a spent deck is reshuffled from `rng` first.
  TxnType draw(Rng& rng) {
    if (pos_ >= cards_.size()) {
      pos_ = 0;
      shuffle(rng);
    }
    return cards_[pos_++];
  }

 private:
  /// Fisher-Yates, drawing from the back.
  void shuffle(Rng& rng) {
    for (std::size_t k = cards_.size(); k > 1; --k) {
      std::swap(cards_[k - 1], cards_[static_cast<std::size_t>(rng.uniform(
                                   0, static_cast<std::int64_t>(k) - 1))]);
    }
  }

  std::array<TxnType, 23> cards_{};
  std::size_t pos_ = 0;
};

}  // namespace vdb::tpcc
