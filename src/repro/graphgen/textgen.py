"""Deterministic text generation in Japanese, Thai and Western flavors.

The HTML synthesizer needs page bodies whose *bytes* genuinely look like
the declared language — otherwise the byte-distribution charset detector
would be tested against strawmen.  Vocabularies are built once per
flavor from syllable inventories with a fixed internal seed; per-page
variation comes entirely from the RNG the caller passes in, so a page's
text is a pure function of its seed.

Word frequencies are Zipf-distributed (rank^-1.1), matching the shape of
natural-language word distributions closely enough for frequency-based
detection to behave as it does on real text.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.charset.languages import Language

# --- character inventories -------------------------------------------------

_HIRAGANA = (
    "あいうえおかきくけこさしすせそたちつてとなにぬねのはひふへほ"
    "まみむめもやゆよらりるれろわをんがぎぐげござじずぜぞだぢづでど"
    "ばびぶべぼぱぴぷぺぽっゃゅょ"
)
_KATAKANA = (
    "アイウエオカキクケコサシスセソタチツテトナニヌネノハヒフヘホ"
    "マミムメモヤユヨラリルレロワヲンガギグゲゴザジズゼゾダヂヅデド"
    "バビブベボパピプペポッャュョー"
)
_KANJI = (
    "日本語学校時間人年月大小中国東京新聞電車会社仕事世界情報検索"
    "言語文字資料図書質問回答方法問題結果研究開発利用公開最新無料"
    "案内地域文化歴史自然環境技術経済政治社会教育科学音楽映画旅行"
    "料理健康生活家族友達写真画像動画商品販売価格注文送料店舗営業"
)

#: Common hangul syllables (all present in KS X 1001, hence EUC-KR-safe).
_HANGUL = (
    "가나다라마바사아자차카타파하거너더러머버서어저처커터퍼허"
    "고노도로모보소오조초코토포호구누두루무부수우주추쿠투푸후"
    "그느드르므브스으즈츠크트프흐기니디리미비시이지치키티피히"
    "는을를에서의로와과도만한했있었것들니습내보기게해지난"
)

#: Thai consonants with rough real-text frequency weights: the common
#: letters (น ร ก ง ม ...) dominate genuine prose while ฎ ฏ ฐ ฮ are
#: rare — a distribution the charset detector's frequency model relies
#: on to tell Thai from CJK bytes that happen to land in the Thai range.
_THAI_CONSONANT_WEIGHTS = {
    "ก": 8, "ข": 2, "ค": 8, "ง": 8, "จ": 8, "ฉ": 2, "ช": 8, "ซ": 2,
    "ญ": 0.5, "ฎ": 0.5, "ฏ": 0.5, "ฐ": 0.5, "ณ": 0.5, "ด": 8, "ต": 8,
    "ถ": 2, "ท": 8, "ธ": 2, "น": 8, "บ": 8, "ป": 8, "ผ": 2, "ฝ": 2,
    "พ": 8, "ฟ": 2, "ภ": 2, "ม": 8, "ย": 8, "ร": 8, "ล": 8, "ว": 8,
    "ศ": 2, "ษ": 2, "ส": 8, "ห": 8, "อ": 8, "ฮ": 0.5,
}
_THAI_CONSONANTS = "".join(_THAI_CONSONANT_WEIGHTS)
#: Above/below combining vowels: written after the consonant, and a tone
#: mark may stack on top of them.
_THAI_COMBINING_VOWELS = "ิีึืุู"
#: Spacing vowels: follow the syllable; a tone mark always precedes them
#: (it attaches to the consonant), never follows.
_THAI_SPACING_VOWELS = "ะา"
_THAI_LEADING_VOWELS = "เแโใไ"
_THAI_TONES = "่้๊๋"

_ENGLISH_WORDS = (
    "the web page site home news search index about contact link list "
    "free online service world time year people information system data "
    "computer network internet archive library research project report "
    "public national digital resource document history language country "
    "government university student school community business market price "
    "product review guide travel music photo video game sport health food "
    "book article story member group event center office question answer "
    "open close start first last next under over more most best good new"
).split()

_LATIN_EXTRA_WORDS = (
    "café été déjà naïve crème gâteau forêt château niño señor mañana "
    "über straße grün schön señora résumé entrée cliché protégé"
).split()

#: Zipf exponent for word ranks.
_ZIPF_S = 1.1

#: Vocabulary sizes per flavor.
_VOCAB_SIZE = 600


def _zipf_cumulative(size: int) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, size + 1, dtype=np.float64), _ZIPF_S)
    return np.cumsum(weights / weights.sum())


def _build_japanese_vocab(rng: np.random.Generator) -> list[str]:
    """Words: hiragana particles/inflections, katakana loans, kanji compounds."""
    vocab: list[str] = []
    for _ in range(_VOCAB_SIZE):
        kind = rng.random()
        if kind < 0.45:  # hiragana word, 2-4 syllables
            length = int(rng.integers(2, 5))
            vocab.append("".join(rng.choice(list(_HIRAGANA), size=length)))
        elif kind < 0.60:  # katakana loanword
            length = int(rng.integers(2, 6))
            vocab.append("".join(rng.choice(list(_KATAKANA), size=length)))
        else:  # kanji compound, often with hiragana okurigana
            length = int(rng.integers(1, 4))
            word = "".join(rng.choice(list(_KANJI), size=length))
            if rng.random() < 0.4:
                word += rng.choice(list(_HIRAGANA))
            vocab.append(word)
    return vocab


def _build_thai_vocab(rng: np.random.Generator) -> list[str]:
    """Words: 1-4 Thai syllables in canonical orthographic order.

    Mark order matters: a tone mark sits on the consonant (optionally
    stacked on an above/below vowel) and always *precedes* a spacing
    vowel like sara aa — the positional constraint the charset prober's
    adjacency model checks.
    """
    consonants = list(_THAI_CONSONANT_WEIGHTS)
    weights = np.array(list(_THAI_CONSONANT_WEIGHTS.values()), dtype=np.float64)
    weights /= weights.sum()

    vocab: list[str] = []
    for _ in range(_VOCAB_SIZE):
        syllables = []
        for _ in range(int(rng.integers(1, 5))):
            syllable = ""
            if rng.random() < 0.25:
                syllable += rng.choice(list(_THAI_LEADING_VOWELS))
            syllable += rng.choice(consonants, p=weights)
            vowel_kind = rng.random()
            if vowel_kind < 0.40:
                syllable += rng.choice(list(_THAI_COMBINING_VOWELS))
                if rng.random() < 0.35:
                    syllable += rng.choice(list(_THAI_TONES))
            elif vowel_kind < 0.65:
                if rng.random() < 0.35:
                    syllable += rng.choice(list(_THAI_TONES))
                syllable += rng.choice(list(_THAI_SPACING_VOWELS))
            elif rng.random() < 0.35:
                syllable += rng.choice(list(_THAI_TONES))
            if rng.random() < 0.3:
                syllable += rng.choice(consonants, p=weights)
            syllables.append(syllable)
        vocab.append("".join(syllables))
    return vocab


def _build_western_vocab(rng: np.random.Generator, accented: bool) -> list[str]:
    base = list(_ENGLISH_WORDS)
    if accented:
        base += list(_LATIN_EXTRA_WORDS) * 3  # raise accent frequency
    vocab = [str(rng.choice(base)) for _ in range(_VOCAB_SIZE)]
    return vocab


def _build_korean_vocab(rng: np.random.Generator) -> list[str]:
    """Words: 1-4 hangul syllables drawn from the common inventory."""
    syllables = list(_HANGUL)
    vocab: list[str] = []
    for _ in range(_VOCAB_SIZE):
        length = int(rng.integers(1, 5))
        vocab.append("".join(rng.choice(syllables, size=length)))
    return vocab


@lru_cache(maxsize=None)
def _flavor_tables(flavor: str) -> tuple[tuple[str, ...], np.ndarray, str, str]:
    """(vocabulary, zipf cumulative, word separator, sentence end)."""
    rng = np.random.default_rng(0xC0FFEE)  # fixed: vocabularies are static
    if flavor == "japanese":
        return tuple(_build_japanese_vocab(rng)), _zipf_cumulative(_VOCAB_SIZE), "", "。"
    if flavor == "thai":
        return tuple(_build_thai_vocab(rng)), _zipf_cumulative(_VOCAB_SIZE), "", " "
    if flavor == "korean":
        return tuple(_build_korean_vocab(rng)), _zipf_cumulative(_VOCAB_SIZE), " ", ". "
    if flavor == "latin":
        return tuple(_build_western_vocab(rng, accented=True)), _zipf_cumulative(_VOCAB_SIZE), " ", ". "
    if flavor == "english":
        return tuple(_build_western_vocab(rng, accented=False)), _zipf_cumulative(_VOCAB_SIZE), " ", ". "
    raise ValueError(f"unknown text flavor {flavor!r}")


FLAVORS = ("japanese", "thai", "korean", "english", "latin")


#: The languages with a flavor of their own, as module globals:
#: :func:`flavor_for` runs per generated text and per cued link part, and
#: a member looked up on its class costs an attribute walk each time.
_JAPANESE = Language.JAPANESE
_THAI = Language.THAI
_KOREAN = Language.KOREAN


def flavor_for(language: Language, accented: bool = False) -> str:
    """Default text flavor for a content language."""
    if language is _JAPANESE:
        return "japanese"
    if language is _THAI:
        return "thai"
    if language is _KOREAN:
        return "korean"
    return "latin" if accented else "english"


class TextGenerator:
    """Draws Zipf-distributed words of one flavor from a caller-owned RNG."""

    def __init__(self, flavor: str, rng: np.random.Generator) -> None:
        vocab, cumulative, separator, period = _flavor_tables(flavor)
        self.flavor = flavor
        self._vocab = vocab
        self._cumulative = cumulative
        self._separator = separator
        self._period = period
        self._rng = rng

    def words(self, count: int) -> list[str]:
        """``count`` independent Zipf-distributed words."""
        draws = self._rng.random(count)
        indices = np.searchsorted(self._cumulative, draws)
        return [self._vocab[index] for index in indices]

    def phrase(self, min_words: int = 2, max_words: int = 6) -> str:
        """A short run of words (titles, anchor texts)."""
        count = int(self._rng.integers(min_words, max_words + 1))
        return self._separator.join(self.words(count))

    def sentence(self) -> str:
        count = int(self._rng.integers(4, 14))
        return self._separator.join(self.words(count)) + self._period

    def paragraph(self, sentences: int | None = None) -> str:
        if sentences is None:
            sentences = int(self._rng.integers(2, 6))
        return "".join(self.sentence() for _ in range(sentences))
