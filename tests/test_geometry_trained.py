"""Geometry behaviour that only shows up on trained models."""

from vqlat import geometry as geo


def differing_positions(a: list[str], b: list[str]) -> list[int]:
    n = max(len(a), len(b))
    return [p for p in range(n) if p >= len(a) or p >= len(b) or a[p] != b[p]]


class TestTraversalLocality:
    def test_determiner_slot_changes_stay_local(self, inference_fixture):
        bundle = inference_fixture["bundle"]
        shark = ["a", "shark", "is", "a", "kind", "of", "fish"]
        indices, _ = bundle.quantize_words(shark)
        [original] = bundle.decode_words([indices])
        variants = bundle.decode_words(geo.traverse_position(indices, 0, bundle.codebook, 10))
        local = sum(all(abs(p - 0) <= 2 for p in differing_positions(v, original))
                    for v in variants)
        assert local / len(variants) >= 0.7

    def test_first_variant_reproduces_sentence(self, inference_fixture):
        bundle = inference_fixture["bundle"]
        shark = ["a", "shark", "is", "a", "kind", "of", "fish"]
        indices, _ = bundle.quantize_words(shark)
        variants = bundle.decode_words(geo.traverse_position(indices, 1, bundle.codebook, 1))
        assert variants[0] == shark


class TestDisentanglementOnTrainedModel:
    def build_stats(self, fixture):
        bundle = fixture["bundle"]
        occurrences = []
        frequency: dict[str, int] = {}
        for sentence in fixture["sentences"]:
            indices, _ = bundle.quantize_words(sentence.tokens)
            occurrences.append(geo.SentenceLatents(sentence.tokens, sentence.roles, indices))
            for tok, role in zip(sentence.tokens, sentence.roles):
                if role != "O":
                    frequency[f"{role}-{tok}"] = frequency.get(f"{role}-{tok}", 0) + 1
        stats = {s.label: s for s in geo.disentanglement_stats(occurrences, bundle.codebook)}
        return stats, frequency

    def test_high_frequency_contents_spread_over_more_centers(self, trained_fixture):
        stats, frequency = self.build_stats(trained_fixture)
        by_freq = sorted(frequency, key=lambda k: -frequency[k])
        frequent = max(stats[label].num_centers for label in by_freq[:5])
        rare = max(stats[label].num_centers for label in by_freq[-5:])
        assert frequent >= rare

    def test_distance_ordering_holds_everywhere(self, trained_fixture):
        stats, _ = self.build_stats(trained_fixture)
        for s in stats.values():
            assert s.min_dis <= s.avg_dis <= s.max_dis
            assert s.num_centers >= 1

    def test_negation_content_present_and_concentrated(self, trained_fixture):
        stats, frequency = self.build_stats(trained_fixture)
        assert "NEG-not" in stats
        assert stats["PRED-is"].num_centers >= stats["NEG-not"].num_centers
