import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wordfuse import segvote
from wordfuse.segvote import Segmentation, WordSpan


def compositions(sentence):
    """All ways to split sentence into contiguous non-empty words."""
    n = len(sentence)
    if n == 0:
        return [[]]
    out = []
    for cuts in range(2 ** (n - 1)):
        words, start = [], 0
        for i in range(n - 1):
            if cuts >> i & 1:
                words.append(sentence[start : i + 1])
                start = i + 1
        words.append(sentence[start:])
        out.append(words)
    return out


class TestWordSpan:
    def test_len_is_end_inclusive(self):
        assert len(WordSpan(2, 5)) == 4
        assert len(WordSpan(3, 3)) == 1


class TestSegmentation:
    def test_words_and_spans_are_views_of_the_starts(self):
        seg = Segmentation("abcde", (0, 2, 5))
        assert seg.words == ["ab", "cde"]
        assert seg.spans == [WordSpan(0, 1), WordSpan(2, 4)]

    @pytest.mark.parametrize(
        "starts",
        [(), (1, 4), (0, 2, 2, 4), (0, 3, 2, 4), (0, 2), (0, 2, 5)],
        ids=["none", "first-not-0", "repeated", "falling", "short", "overrun"],
    )
    def test_rejects_bad_starts(self, starts):
        with pytest.raises(ValueError, match="word starts must rise strictly from 0 to the sentence's length 4"):
            Segmentation("abcd", starts)

    def test_empty_sentence_has_no_words(self):
        assert Segmentation("", (0,)).words == []


class TestSingleVoter:
    def test_builds_the_starts(self):
        seg = segvote.vote("abcd", [["ab", "c", "d"]])
        assert seg.starts == (0, 2, 3, 4)
        assert [(s.start, s.end) for s in seg.spans] == [(0, 1), (2, 2), (3, 3)]

    def test_reports_first_divergent_index(self):
        # "ce" placed at positions 2-3 first disagrees with "cd" at index 3
        with pytest.raises(ValueError, match="index 3"):
            segvote.vote("abcd", [["ab", "ce"]])

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            segvote.vote("ab", [["ab", ""]])

    def test_rejects_overlong(self):
        with pytest.raises(ValueError):
            segvote.vote("ab", [["ab", "c"]])

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            segvote.vote("abc", [["ab"]])


class TestVote:
    def test_headline_three_tokenizer_case(self):
        seg = segvote.vote(
            "重庆人和中学",
            [["重庆", "人和", "中学"], ["重庆", "人和中学"], ["重庆人", "和", "中学"]],
        )
        assert seg.words == ["重庆", "人和中学"]
        assert [(s.start, s.end) for s in seg.spans] == [(0, 1), (2, 5)]

    def test_majority_beats_granularity(self):
        seg = segvote.vote("abcd", [["ab", "cd"], ["ab", "cd"], ["abcd"]])
        assert seg.words == ["ab", "cd"]

    def test_granularity_breaks_frequency_tie(self):
        seg = segvote.vote("abc", [["ab", "c"], ["abc"]])
        assert seg.words == ["abc"]

    def test_mid_word_voters_are_silent(self):
        # at cursor 2 the first voter's covering word started at 1, so only
        # the two "c" votes count
        seg = segvote.vote("abc", [["a", "bc"], ["ab", "c"], ["ab", "c"]])
        assert seg.words == ["ab", "c"]

    def test_single_voter_is_identity(self):
        for words in compositions("abcde"):
            assert segvote.vote("abcde", [words]).words == words

    def test_requires_at_least_one_tokenization(self):
        with pytest.raises(ValueError):
            segvote.vote("ab", [])

    def test_propagates_tokenization_mismatch(self):
        with pytest.raises(ValueError, match="character index 2"):
            segvote.vote("abc", [["abc"], ["ab", "x"]])

    def test_does_not_mutate_input(self):
        toks = [["ab", "c"], ["abc"]]
        snapshot = [list(t) for t in toks]
        segvote.vote("abc", toks)
        assert toks == snapshot

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        sentence=st.text(alphabet="abc", min_size=1, max_size=8),
    )
    def test_unanimous_voters_reproduce_their_segmentation(self, data, sentence):
        words = data.draw(st.sampled_from(compositions(sentence)))
        copies = data.draw(st.integers(min_value=1, max_value=5))
        assert segvote.vote(sentence, [list(words)] * copies).words == words

    def test_matches_brute_force_oracle_small(self):
        for n in range(1, 5):
            for bits in range(2**n):
                sentence = "".join("ab"[bits >> i & 1] for i in range(n))
                opts = compositions(sentence)
                for pair in itertools.product(opts, repeat=2):
                    got = segvote.vote(sentence, list(pair)).words
                    want = oracles.vote_brute_force(sentence, list(pair))
                    assert got == want, (sentence, pair)


@st.composite
def voter(draw, sentence):
    """One tokenization of sentence: a word ends after each character drawn as a cut."""
    cuts = draw(st.lists(st.booleans(), min_size=len(sentence) - 1, max_size=len(sentence) - 1))
    ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [len(sentence)]
    return [sentence[start:end] for start, end in zip([0, *ends], ends)]


@st.composite
def one_defect(draw, sentence):
    """A tokenization of sentence with an empty word, a wrong character, an extra word or a missing tail."""
    words = draw(voter(sentence))
    kind = draw(st.sampled_from(["empty word", "wrong character", "extra word", "missing tail"]))
    if kind == "empty word":
        words.insert(draw(st.integers(0, len(words))), "")
    elif kind == "wrong character":
        i = draw(st.integers(0, len(words) - 1))
        j = draw(st.integers(0, len(words[i]) - 1))
        words[i] = words[i][:j] + "x" + words[i][j + 1 :]
    elif kind == "extra word":
        words.append(draw(st.text(alphabet="abx", min_size=1, max_size=3)))
    else:
        del words[draw(st.integers(0, len(words) - 1)) :]
    return words


class TestAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), sentence=st.text(alphabet="ab", min_size=1, max_size=14))
    def test_vote_matches_brute_force(self, data, sentence):
        voters = data.draw(st.lists(voter(sentence), min_size=1, max_size=5))
        assert segvote.vote(sentence, voters).words == oracles.vote_brute_force(sentence, voters)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), sentence=st.text(alphabet="ab", min_size=1, max_size=14))
    def test_a_defect_gets_the_reference_message(self, data, sentence):
        bad = data.draw(one_defect(sentence))
        message = oracles.tokenization_error(sentence, bad)
        assert message is not None
        with pytest.raises(ValueError) as err:
            segvote.vote(sentence, [bad])
        assert str(err.value) == message
        # among good voters, vote reports the bad one's problem
        voters = data.draw(st.lists(voter(sentence), max_size=3))
        voters.insert(data.draw(st.integers(0, len(voters))), bad)
        with pytest.raises(ValueError) as err:
            segvote.vote(sentence, voters)
        assert str(err.value) == message


class TestAgreementStats:
    def test_identical_pair_full_agreement(self):
        assert segvote.agreement_stats([["ab", "cd"], ["ab", "cd"]]).agreement == 1.0

    def test_partial_agreement(self):
        assert segvote.agreement_stats([["ab", "cd"], ["abcd"]]).agreement == 0.5
        assert segvote.agreement_stats([["a", "bc"], ["ab", "c"]]).agreement == 1 / 3

    def test_empty_sentence_agrees(self):
        assert segvote.agreement_stats([[], []]).agreement == 1.0

    def test_needs_two_tokenizations(self):
        with pytest.raises(ValueError):
            segvote.agreement_stats([["ab"]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            segvote.agreement_stats([["ab"], ["abc"]])

    @pytest.mark.parametrize(
        ("tokenizations", "message"),
        [
            ([["ab"]], "agreement_stats needs at least two tokenizations"),
            ([["ab"], ["abc"]], "tokenization diverges from sentence at character index 2"),
            ([["a", ""], ["abc"]], "empty word at character index 1"),
            ([["a", "", "b"], ["ab"]], "empty word at character index 1"),
            ([["ab"], ["cd"]], "tokenization diverges from sentence at character index 0"),
        ],
    )
    def test_messages(self, tokenizations, message):
        with pytest.raises(ValueError) as err:
            segvote.agreement_stats(tokenizations)
        assert str(err.value) == message

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), sentence=st.text(alphabet="ab", min_size=1, max_size=14))
    def test_agreement_is_the_shared_share_of_proposed_starts(self, data, sentence):
        voters = data.draw(st.lists(voter(sentence), min_size=2, max_size=5))
        starts = [{len("".join(words[:i])) for i in range(len(words))} for words in voters]
        shared, proposed = set.intersection(*starts), set.union(*starts)
        assert segvote.agreement_stats(voters).agreement == len(shared) / len(proposed)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), sentence=st.text(alphabet="ab", min_size=1, max_size=14))
    def test_refuses_exactly_what_vote_refuses(self, data, sentence):
        voters = data.draw(st.lists(voter(sentence), min_size=2, max_size=5))
        for i in data.draw(st.lists(st.integers(0, len(voters) - 1), max_size=2, unique=True)):
            words = voters[i]
            j = data.draw(st.integers(0, len(words) - 1))
            if data.draw(st.booleans()):  # one character changed
                k = data.draw(st.integers(0, len(words[j]) - 1))
                words[j] = words[j][:k] + "x" + words[j][k + 1:]
            else:  # one word emptied
                words[j] = ""
        try:
            segvote.vote("".join(voters[0]), voters)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                segvote.agreement_stats(voters)
            assert str(got.value) == str(err)
        else:
            segvote.agreement_stats(voters)
