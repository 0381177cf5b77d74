"""Standard tokenizer: UAX#29 word-break segmentation, Lucene-flavored.

Semantics follow the reference grammar
(``lucene/core/src/java/org/apache/lucene/analysis/standard/StandardTokenizerImpl.jflex:198-255``
and ``.../StandardTokenizer.java:31-80``):

- ``<ALPHANUM>``: sequences of letters/digits, joined across MidLetter
  (``:`` ``·``), MidNumLet (``.`` ``'`` ``’``), Single_Quote (``'``) between
  letters; MidNum (``,`` ``;``) / MidNumLet between digits; ExtendNumLet
  (``_``) joins everything (UAX#29 WB5-WB13b).
- ``<NUM>``: the same shape with no letters.
- ``<IDEOGRAPHIC>``: one token per CJKV ideograph.
- ``<HIRAGANA>``: one token per hiragana char.
- ``<KATAKANA>``: katakana runs.
- ``<HANGUL>``: hangul runs.
- ``<SOUTHEAST_ASIAN>``: Thai/Lao/Myanmar/Khmer runs (kept whole, like the
  reference — satisfactory SEA segmentation is out of UAX#29 scope).
- ``<EMOJI>``: emoji sequences (pictographic + ZWJ joins + modifiers +
  regional-indicator pairs + keycaps).

Tokens longer than ``max_token_length`` (default 255, hard cap like
``StandardTokenizer.java:152``) are *split* into max-length chunks, not
dropped. Offsets are Python codepoint offsets (the reference reports Java
UTF-16 offsets; identical for BMP text — offsets never affect
ranking/scoring, only highlighting).

This is a clean-room reimplementation driven by the published UAX#29 rules
— no generated DFA tables from the reference are used.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import List

ALPHANUM = "<ALPHANUM>"
NUM = "<NUM>"
SOUTHEAST_ASIAN = "<SOUTHEAST_ASIAN>"
IDEOGRAPHIC = "<IDEOGRAPHIC>"
HIRAGANA = "<HIRAGANA>"
KATAKANA = "<KATAKANA>"
HANGUL = "<HANGUL>"
EMOJI = "<EMOJI>"

DEFAULT_MAX_TOKEN_LENGTH = 255
MAX_TOKEN_LENGTH_LIMIT = 1024 * 1024  # StandardTokenizer.MAX_TOKEN_LENGTH_LIMIT


@dataclass(frozen=True)
class Token:
    text: str
    start: int  # codepoint offset, inclusive
    end: int  # codepoint offset, exclusive
    type: str


# --------------------------------------------------------------------------
# ASCII fast path: one regex expressing WB5-WB13b restricted to ASCII.
#   base run  = [0-9A-Za-z_]+   (AHLetter | Numeric | ExtendNumLet)
#   letter mid = [.':]  (MidNumLet + SingleQuote + MidLetter ':')
#   digit mid  = [.,;'] (MidNumLet + SingleQuote + MidNum ',' ';')
# --------------------------------------------------------------------------
_ASCII_TOKEN = re.compile(
    r"[0-9A-Za-z_]+"
    r"(?:(?:(?<=[0-9])[.,;'](?=[0-9])|(?<=[A-Za-z])[.:'](?=[A-Za-z]))[0-9A-Za-z_]+)*"
)
_ASCII_HAS_LETTER = re.compile(r"[A-Za-z]")
# batched variant: NUL doubles as a document separator (it is not a token
# char and not a mid-punct char, so it can never extend or join tokens)
_ASCII_TOKEN_OR_NUL = re.compile(_ASCII_TOKEN.pattern + "|\x00")


def _byte_lut(chars: bytes):
    import numpy as np

    lut = np.zeros(256, dtype=bool)
    lut[list(chars)] = True
    return lut


# byte-class LUTs for the vectorized batched tokenizer (same classes as
# _ASCII_TOKEN above)
_LUT_TOK = _byte_lut(
    b"0123456789_"
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
)
_LUT_DIGIT = _byte_lut(b"0123456789")
_LUT_LETTER = _byte_lut(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
)
_LUT_MIDNUM = _byte_lut(b".,;'")
_LUT_MIDLET = _byte_lut(b".:'")
# any mid-punct candidate (union) — the batched tokenizer finds these
# sparse positions first, then applies the digit/letter neighbor rules
# only there instead of building full-length shifted mask arrays
_LUT_MID = _LUT_MIDNUM | _LUT_MIDLET

# --------------------------------------------------------------------------
# Unicode word-break classification (general path)
# --------------------------------------------------------------------------
_WB_ALETTER = 1
_WB_NUMERIC = 2
_WB_KATAKANA = 3
_WB_HIRAGANA = 4
_WB_HAN = 5
_WB_HANGUL = 6
_WB_SEA = 7
_WB_EMOJI = 8
_WB_MIDLETTER = 9
_WB_MIDNUM = 10
_WB_MIDNUMLET = 11
_WB_SINGLEQUOTE = 12
_WB_EXTENDNUMLET = 13
_WB_EXTEND = 14  # Extend | Format | ZWJ  (WB4: attach to preceding)
_WB_REGIONAL = 15
_WB_ZWJ = 16
_WB_EMOJI_MOD = 17
_WB_VS16 = 18
_WB_KEYCAP = 19
_WB_OTHER = 0

_MIDLETTER_CPS = {0x003A, 0x00B7, 0x0387, 0x055F, 0x05F4, 0x2027, 0xFE13, 0xFE55, 0xFF1A}
_MIDNUM_CPS = {0x002C, 0x003B, 0x037E, 0x0589, 0x060C, 0x060D, 0x066C, 0x07F8,
               0x2044, 0xFE10, 0xFE14, 0xFE50, 0xFE54, 0xFF0C, 0xFF1B}
_MIDNUMLET_CPS = {0x002E, 0x2018, 0x2019, 0x2024, 0xFE52, 0xFF07, 0xFF0E}
_SINGLEQUOTE_CP = 0x0027
_SEA_RANGES = (
    (0x0E00, 0x0E7F),  # Thai, Lao start
    (0x0E80, 0x0EFF),  # Lao
    (0x1000, 0x109F),  # Myanmar
    (0x1780, 0x17FF),  # Khmer
    (0x19E0, 0x19FF),  # Khmer symbols
    (0xA9E0, 0xA9FF),  # Myanmar ext B
    (0xAA60, 0xAA7F),  # Myanmar ext A
)
_EMOJI_RANGES = (
    (0x1F000, 0x1FAFF),  # mahjong..symbols & pictographs ext-A
    (0x2600, 0x27BF),    # misc symbols, dingbats
    (0x2300, 0x23FF),    # misc technical (watch, hourglass...)
    (0x2B00, 0x2BFF),    # arrows/stars subset
    (0xFE0F, 0xFE0F),
    (0x1F900, 0x1F9FF),
)
_HAN_RANGES = (
    (0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF),
    (0x20000, 0x2A6DF), (0x2A700, 0x2EBEF), (0x30000, 0x3134F),
)


def _in_ranges(cp: int, ranges) -> bool:
    for lo, hi in ranges:
        if lo <= cp <= hi:
            return True
    return False


class _WbClassTable(dict):
    """codepoint -> word-break class, computed lazily from unicodedata."""

    def __missing__(self, cp: int) -> int:
        cls = self._classify(cp)
        self[cp] = cls
        return cls

    @staticmethod
    def _classify(cp: int) -> int:
        if cp == _SINGLEQUOTE_CP:
            return _WB_SINGLEQUOTE
        if cp in _MIDNUMLET_CPS:
            return _WB_MIDNUMLET
        if cp in _MIDLETTER_CPS:
            return _WB_MIDLETTER
        if cp in _MIDNUM_CPS:
            return _WB_MIDNUM
        if cp == 0x200D:
            return _WB_ZWJ
        if cp == 0x20E3:
            return _WB_KEYCAP
        if cp == 0xFE0F:
            return _WB_VS16
        if 0x1F3FB <= cp <= 0x1F3FF:
            return _WB_EMOJI_MOD
        if 0x1F1E6 <= cp <= 0x1F1FF:
            return _WB_REGIONAL
        ch = chr(cp)
        cat = unicodedata.category(ch)
        if cat in ("Mn", "Mc", "Me"):
            return _WB_EXTEND
        if cat == "Cf":
            return _WB_EXTEND
        if cat == "Pc":  # connector punctuation: '_' and friends
            return _WB_EXTENDNUMLET
        if cat == "Nd":
            return _WB_NUMERIC
        if _in_ranges(cp, _HAN_RANGES):
            return _WB_HAN
        if 0x3040 <= cp <= 0x309F:
            return _WB_HIRAGANA
        if 0x30A0 <= cp <= 0x30FF or 0x31F0 <= cp <= 0x31FF or 0xFF66 <= cp <= 0xFF9D:
            return _WB_KATAKANA
        if 0xAC00 <= cp <= 0xD7AF or 0x1100 <= cp <= 0x11FF or 0x3130 <= cp <= 0x318F:
            return _WB_HANGUL
        if _in_ranges(cp, _SEA_RANGES):
            return _WB_SEA
        if _in_ranges(cp, _EMOJI_RANGES):
            return _WB_EMOJI
        if cat.startswith("L") or cat == "Nl":
            return _WB_ALETTER
        return _WB_OTHER


_WB = _WbClassTable()

_MID_FOR_LETTER = (_WB_MIDLETTER, _WB_MIDNUMLET, _WB_SINGLEQUOTE)
_MID_FOR_NUM = (_WB_MIDNUM, _WB_MIDNUMLET, _WB_SINGLEQUOTE)
_WORDISH = (_WB_ALETTER, _WB_NUMERIC, _WB_EXTENDNUMLET)
_EMOJIISH = (_WB_EMOJI, _WB_REGIONAL, _WB_EMOJI_MOD)


class StandardTokenizer:
    """UAX#29-based standard tokenizer with Lucene token types.

    ``tokenize(text)`` yields ``Token`` tuples in order. Stateless and
    thread/actor-safe; construct once per actor and reuse.
    """

    def __init__(self, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH):
        if not (1 <= max_token_length <= MAX_TOKEN_LENGTH_LIMIT):
            raise ValueError(f"max_token_length out of range: {max_token_length}")
        self.max_token_length = max_token_length

    # -- public API --------------------------------------------------------

    def tokenize(self, text: str) -> List[Token]:
        if text.isascii():
            return self._tokenize_ascii(text)
        return self._tokenize_unicode(text)

    def terms(self, text: str) -> List[str]:
        """Token texts only — the indexing hot path (no offsets built)."""
        if text.isascii():
            toks = _ASCII_TOKEN.findall(text)
            maxlen = self.max_token_length
            # overlong tokens are rare: one C-level max() probe replaces
            # the per-token length loop in the common case
            if not toks or max(map(len, toks)) <= maxlen:
                return toks
            out: List[str] = []
            for t in toks:
                if len(t) <= maxlen:
                    out.append(t)
                else:
                    out.extend(t[i:i + maxlen] for i in range(0, len(t), maxlen))
            return out
        return [t.text for t in self._tokenize_unicode(text)]

    def terms_flat_from_joined(self, joined: str, n_docs: int):
        """Batched ASCII hot path: ``joined`` = ``n_docs`` (already
        lowercased, ASCII, NUL-free) texts joined by NUL.

        Token boundaries are computed with VECTORIZED byte
        classification — the ``_ASCII_TOKEN`` rule (base runs of
        ``[0-9A-Za-z_]`` joined by one mid-punct with digit/letter
        context, WB5-WB13b restricted to ASCII) is evaluated as numpy
        LUT + shift masks over the raw bytes, and the result is built
        directly as an Arrow ``large_string`` array from the gathered
        byte buffer + offsets. No Python token strings exist at any
        point — the build stage is allocation-bound at high task
        concurrency and this is its hottest path (BASELINE.md
        build-efficiency note). Batches containing an overlong token
        (> ``max_token_length``) fall back to the regex path, which is
        semantics-identical (property-tested).

        Returns ``(terms, doc_of_term, lengths)``:
        ``terms`` Arrow large_string array of token texts in document
        order, ``doc_of_term`` int64 ndarray mapping each token to its
        document ordinal — or ``None`` on the common no-overlong-token
        path (computing it is pure DRAM traffic; callers that need it
        derive it from ``lengths`` with one ``np.repeat``) — and
        ``lengths`` int64[n_docs] token counts.
        Overlong tokens are split in place (maxTokenLength
        split-not-drop semantics, ``StandardTokenizer.java:43-80``).
        """
        import numpy as np
        import pyarrow as pa

        b = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
        n = len(b)
        if n == 0:
            return (
                pa.array([], pa.large_string()),
                np.empty(0, dtype=np.int64),
                np.zeros(n_docs, dtype=np.int64),
            )
        m = _LUT_TOK[b]  # fresh gather output — safe to update in place
        # a mid-punct joins two base runs iff its immediate neighbors
        # match its class rule (regex lookaround). Mid-punct bytes are a
        # tiny fraction of web text, so the rule runs SPARSELY: gather
        # the candidate positions once, test their two neighbor bytes
        # there — no full-length shifted mask arrays (the build leg is
        # DRAM-bandwidth-bound at 32-way task concurrency; every full-n
        # temporary costs real scaling headroom)
        mid = np.flatnonzero(_LUT_MID[b])
        if len(mid):
            mid = mid[(mid > 0) & (mid < n - 1)]
        if len(mid):
            mb, lb, rb = b[mid], b[mid - 1], b[mid + 1]
            join = (_LUT_MIDNUM[mb] & _LUT_DIGIT[lb] & _LUT_DIGIT[rb]) | (
                _LUT_MIDLET[mb] & _LUT_LETTER[lb] & _LUT_LETTER[rb]
            )
            m[mid[join]] = True
        # token run boundaries in ONE flip scan (every full-length
        # temporary in this function is measurable DRAM traffic at
        # 32-way build concurrency): positions where m changes state
        # alternate between run starts and run ends
        x = m.view(np.int8)
        bounds = np.flatnonzero(x[1:] != x[:-1]) + 1
        if m[0]:
            starts = np.concatenate([np.zeros(1, np.int64), bounds[1::2]])
            ends = bounds[0::2]
        else:
            starts = bounds[0::2]
            ends = bounds[1::2]
        if len(ends) < len(starts):  # trailing run reaches the buffer end
            ends = np.append(ends, n)
        if len(starts) == 0:
            return (
                pa.array([], pa.large_string()),
                np.empty(0, dtype=np.int64),
                np.zeros(n_docs, dtype=np.int64),
            )
        lens = ends - starts
        # doc attribution via the (sparse) NUL separator positions — a
        # full-length cumsum here measured 131 ms on a 4 MB batch, the
        # single largest DRAM-traffic item in the whole build task
        nul_pos = np.flatnonzero(b == 0)
        doc_of_term = None
        maxlen = self.max_token_length
        if int(lens.max()) > maxlen:
            doc_of_term = np.searchsorted(nul_pos, starts).astype(np.int64)
            # overlong tokens split into maxlen-sized chunks IN PLACE
            # (maxTokenLength split-not-drop). Chunk slices stay
            # contiguous sub-ranges of the original spans, so the
            # gathered byte buffer below is unchanged — only the
            # offsets/doc attribution fan out (vectorized repeat).
            reps = (lens + maxlen - 1) // maxlen
            total_out = int(reps.sum())
            chunk_ord = np.arange(total_out, dtype=np.int64) - np.repeat(
                np.cumsum(reps) - reps, reps
            )
            lens = np.minimum(np.repeat(lens, reps) - chunk_ord * maxlen, maxlen)
            doc_of_term = np.repeat(doc_of_term, reps)
        values = b[m].tobytes()
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        terms = pa.Array.from_buffers(
            pa.large_utf8(),
            len(lens),
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(values)],
        )
        if doc_of_term is not None:  # overlong path: per-token docs exist
            lengths = np.bincount(doc_of_term, minlength=n_docs)
        else:
            # per-doc counts straight from the separator positions: token
            # spans never cross a NUL, so #tokens before nul_pos[k] is the
            # cumulative count of docs 0..k
            cuts = np.searchsorted(starts, nul_pos)
            lengths = np.diff(
                np.concatenate(
                    [
                        np.zeros(1, np.int64),
                        cuts,
                        np.array([len(starts)], np.int64),
                    ]
                )
            )
        return terms, doc_of_term, lengths

    # -- ASCII fast path ---------------------------------------------------

    def _tokenize_ascii(self, text: str) -> List[Token]:
        out: List[Token] = []
        maxlen = self.max_token_length
        for m in _ASCII_TOKEN.finditer(text):
            t, s, e = m.group(), m.start(), m.end()
            ttype = ALPHANUM if _ASCII_HAS_LETTER.search(t) else NUM
            if e - s <= maxlen:
                out.append(Token(t, s, e, ttype))
            else:
                for i in range(0, len(t), maxlen):
                    chunk = t[i:i + maxlen]
                    out.append(Token(chunk, s + i, s + i + len(chunk), ttype))
        return out

    # -- general Unicode path ---------------------------------------------

    def _tokenize_unicode(self, text: str) -> List[Token]:
        n = len(text)
        wb = _WB
        cls = [wb[ord(c)] for c in text]
        out: List[Token] = []
        i = 0
        while i < n:
            c = cls[i]
            if self._keycap_at(text, cls, i, n):
                i = self._scan_keycap(text, cls, i, out)
            elif c in _WORDISH:
                i = self._scan_word(text, cls, i, out)
            elif c in _EMOJIISH or c == _WB_KEYCAP:
                i = self._scan_emoji(text, cls, i, out)
            elif c == _WB_HANGUL:
                i = self._scan_run(text, cls, i, (_WB_HANGUL,), HANGUL, out)
            elif c == _WB_KATAKANA:
                i = self._scan_run(text, cls, i, (_WB_KATAKANA,), KATAKANA, out)
            elif c == _WB_SEA:
                i = self._scan_run(text, cls, i, (_WB_SEA,), SOUTHEAST_ASIAN, out)
            elif c == _WB_HAN:
                j = self._skip_extend(cls, i + 1, n)
                self._emit(text, i, j, IDEOGRAPHIC, out)
                i = j
            elif c == _WB_HIRAGANA:
                j = self._skip_extend(cls, i + 1, n)
                self._emit(text, i, j, HIRAGANA, out)
                i = j
            else:
                i += 1
        return out

    @staticmethod
    def _keycap_at(text, cls, i: int, n: int) -> bool:
        """``[0-9#*] ️? ⃣`` — TR#51 keycap sequence (EMOJI wins
        over NUMERIC by rule priority + longest match)."""
        if text[i] not in "0123456789#*":
            return False
        j = i + 1
        if j < n and cls[j] == _WB_VS16:
            j += 1
        return j < n and cls[j] == _WB_KEYCAP

    def _scan_keycap(self, text, cls, i, out) -> int:
        n = len(cls)
        j = i + 1
        if j < n and cls[j] == _WB_VS16:
            j += 1
        j += 1  # the keycap char itself
        self._emit(text, i, j, EMOJI, out)
        return j

    @staticmethod
    def _skip_extend(cls, i: int, n: int) -> int:
        while i < n and cls[i] == _WB_EXTEND:
            i += 1
        return i

    def _emit(self, text: str, s: int, e: int, ttype: str, out: List[Token]) -> None:
        maxlen = self.max_token_length
        if e - s <= maxlen:
            out.append(Token(text[s:e], s, e, ttype))
        else:
            for i in range(s, e, maxlen):
                j = min(i + maxlen, e)
                out.append(Token(text[i:j], i, j, ttype))

    def _scan_run(self, text, cls, i, members, ttype, out) -> int:
        n = len(cls)
        j = i
        while j < n and (cls[j] in members or cls[j] == _WB_EXTEND):
            j += 1
        self._emit(text, i, j, ttype, out)
        return j

    def _scan_word(self, text, cls, i, out) -> int:
        """WB5-WB13b: letters/digits/katakana joined by mids and '_'."""
        n = len(cls)
        j = i
        has_letter = False
        last_core = None  # class of last core (non-extend) char consumed
        while j < n:
            c = cls[j]
            if c == _WB_ALETTER:
                has_letter = True
                last_core = c
                j = self._skip_extend(cls, j + 1, n)
            elif c in (_WB_NUMERIC, _WB_EXTENDNUMLET, _WB_KATAKANA):
                last_core = c
                j = self._skip_extend(cls, j + 1, n)
            elif (
                last_core == _WB_ALETTER
                and c in _MID_FOR_LETTER
            ):
                # WB6/WB7: AHLetter × (MidLetter|MidNumLetQ) AHLetter — the
                # mid must be followed by another letter.
                k = self._skip_extend(cls, j + 1, n)
                if k < n and cls[k] == _WB_ALETTER:
                    j = k
                else:
                    break
            elif last_core == _WB_NUMERIC and c in _MID_FOR_NUM:
                k = self._skip_extend(cls, j + 1, n)
                if k < n and cls[k] == _WB_NUMERIC:
                    j = k
                else:
                    break
            else:
                break
        ttype = ALPHANUM if has_letter else NUM
        # A run of only katakana would have been caught by _scan_run first;
        # mixed katakana via '_' is typed ALPHANUM like the reference WORD rule.
        self._emit(text, i, j, ttype, out)
        return j

    def _scan_emoji(self, text, cls, i, out) -> int:
        """TR#51 emoji_sequence, simplified: pictographic (+VS16/modifier),
        ZWJ-joined repeats, RI pairs, keycap sequences."""
        n = len(cls)
        j = i
        c = cls[j]
        if c == _WB_REGIONAL:
            # flag = exactly two regional indicators
            if j + 1 < n and cls[j + 1] == _WB_REGIONAL:
                j += 2
            else:
                return j + 1  # lone RI: not an emoji token, skip
        elif c == _WB_KEYCAP:
            return j + 1  # keycap without base: skip
        else:
            j = self._consume_emoji_element(cls, j, n)
            while j < n and cls[j] == _WB_ZWJ:
                k = j + 1
                if k < n and (cls[k] in _EMOJIISH or cls[k] == _WB_VS16):
                    j = self._consume_emoji_element(cls, k, n)
                else:
                    break
        self._emit(text, i, j, EMOJI, out)
        return j

    def _consume_emoji_element(self, cls, j: int, n: int) -> int:
        j += 1
        while j < n and cls[j] in (_WB_VS16, _WB_EMOJI_MOD, _WB_EXTEND):
            j += 1
        return j
