"""Seeded input generator for the indicscore benchmark.

Every file written is a pure function of (workload, seed, rows): the same
arguments give byte-identical files, and the package under test is never
imported here. The data covers Telugu, Tamil and Hindi, all seven matcher
classes and all six corpus classes, and deliberately keeps the shapes the
scorer is known to get wrong (a phone number right before a pincode fuses
into one digit run), code-mixed rows with Latin brands, brands missing from
the alias file, and 16-digit card numbers.

    python3 perfbench/gen.py --workload score_long_te --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

import workloads

LANGS = ("te", "ta", "hi")

MATCHER_CLASSES = (
    "digit_run",
    "pincode",
    "currency_amount",
    "brand",
    "proper_noun",
    "spelled_digit",
    "house_or_plot",
)

CORPUS_CLASSES = ("digits", "currency", "addresses", "brands", "codemix", "proper_nouns")

# Rows of these corpus classes may list entity tokens as bare strings.
BARE_STRING_CLASSES = {"digits", "currency", "brands", "proper_nouns"}

SYSTEM = "bench-asr"

CARRIER = {
    "te": (
        "నేను మీరు ఈ రోజు డబ్బులు పంపండి ఖాతా నంబర్ చిరునామా దగ్గర ఉంది కావాలి దయచేసి"
        " చెల్లించండి బ్యాంకు ఫోన్ మా ఇంటి వీధి పేరు ఆర్డర్ డెలివరీ ధన్యవాదాలు సమయం ఎంత"
        " ఇవ్వండి తీసుకోండి నిన్న రేపు వచ్చింది చెప్పండి సరే అవును"
    ).split(),
    "ta": (
        "நான் நீங்கள் இந்த இன்று பணம் அனுப்புங்கள் கணக்கு எண் முகவரி அருகில் உள்ளது வேண்டும்"
        " தயவுசெய்து செலுத்துங்கள் வங்கி தொலைபேசி எங்கள் வீட்டு தெரு பெயர் ஆர்டர் டெலிவரி"
        " நன்றி நேரம் எவ்வளவு கொடுங்கள் நேற்று நாளை வந்தது சொல்லுங்கள் சரி ஆமாம்"
    ).split(),
    "hi": (
        "मैं आप यह आज पैसे भेजिए खाता नंबर पता पास है चाहिए कृपया भुगतान बैंक फोन हमारा"
        " घर गली नाम ऑर्डर डिलीवरी धन्यवाद समय कितना दीजिए लीजिए कल आया बताइए ठीक हाँ"
    ).split(),
}

# Letters used for character substitutions and insertions in hypotheses.
ALPHABET = {
    "te": "కగచజటడతదనపబమయరలవసహాిీుూెేొో",
    "ta": "கஙசஞடணதநபமயரலவழளறனாிீுூெேொோ",
    "hi": "कखगचजटडतदनपबमयरलवसहािीुूेैोौ",
}

LATIN_WORDS = ("okay", "sir", "please", "account", "payment", "order", "delivery", "madam", "actually")

# Number words for 0..9, plus 20 and 50, as the bundled lexicons spell them.
NUMBER_WORDS = {
    "te": {
        0: "సున్నా", 1: "ఒకటి", 2: "రెండు", 3: "మూడు", 4: "నాలుగు", 5: "ఐదు", 6: "ఆరు",
        7: "ఏడు", 8: "ఎనిమిది", 9: "తొమ్మిది", 20: "ఇరవై", 50: "యాభై",
    },
    "ta": {
        0: "பூஜ்ஜியம்", 1: "ஒன்று", 2: "இரண்டு", 3: "மூன்று", 4: "நான்கு", 5: "ஐந்து",
        6: "ஆறு", 7: "ஏழு", 8: "எட்டு", 9: "ஒன்பது", 20: "இருபது", 50: "ஐம்பது",
    },
    "hi": {
        0: "शून्य", 1: "एक", 2: "दो", 3: "तीन", 4: "चार", 5: "पांच", 6: "छह", 7: "सात",
        8: "आठ", 9: "नौ", 20: "बीस", 50: "पचास",
    },
}

MULTIPLIER_WORDS = {
    "te": {1000: "వేల", 100000: "లక్షల", 10000000: "కోట్ల"},
    "ta": {1000: "ஆயிரம்", 100000: "லட்சம்", 10000000: "கோடி"},
    "hi": {1000: "हजार", 100000: "लाख", 10000000: "करोड़"},
}

LATIN_MULTIPLIERS = {1000: "hazaar", 100000: "lakh", 10000000: "crore"}

RUPEE_WORD = {"te": "రూపాయలు", "ta": "ரூபாய்", "hi": "रुपये"}

# Brands in the alias file: Latin canonical name plus one alias per language.
BRANDS = (
    ("Paytm", {"te": "పేటీఎం", "ta": "பேடிஎம்", "hi": "पेटीएम"}),
    ("PhonePe", {"te": "ఫోన్‌పే", "ta": "போன்பே", "hi": "फोनपे"}),
    ("Flipkart", {"te": "ఫ్లిప్‌కార్ట్", "ta": "பிளிப்கார்ட்", "hi": "फ्लिपकार्ट"}),
    ("Swiggy", {"te": "స్విగ్గీ", "ta": "ஸ்விக்கி", "hi": "स्विगी"}),
    ("Zomato", {"te": "జొమాటో", "ta": "சொமாட்டோ", "hi": "जोमैटो"}),
    ("Amazon", {"te": "అమెజాన్", "ta": "அமேசான்", "hi": "अमेजन"}),
)

# Brands deliberately left out of the alias file.
UNLISTED_BRANDS = ("Meesho", "Zepto", "Dunzo", "BigBasket")

PROPER_NOUNS = {
    "te": ("శ్రీనివాస రావు", "జూబ్లీ హిల్స్", "బంజారా హిల్స్", "లక్ష్మీ నరసింహ స్వామి", "కూకట్‌పల్లి హౌసింగ్ బోర్డు", "Jubilee Hills"),
    "ta": ("முருகன் கோவில்", "சென்னை சென்ட்ரல்", "அண்ணா நகர்", "மீனாட்சி சுந்தரம்", "தி நகர் பஸ் நிலையம்", "Anna Nagar"),
    "hi": ("राम प्रसाद", "चांदनी चौक", "करोल बाग", "सुनीता देवी शर्मा", "लाजपत नगर मार्केट", "Karol Bagh"),
}


# ---------------------------------------------------------------------------
# Entities: each returns (reference surface, hypothesis surface)
# ---------------------------------------------------------------------------

def _digits(rng: random.Random, n: int, first: str = "123456789") -> str:
    return rng.choice(first) + "".join(rng.choice("0123456789") for _ in range(n - 1))


def _mangle_digits(rng: random.Random, digits: str) -> str:
    i = rng.randrange(len(digits))
    wrong = rng.choice([d for d in "0123456789" if d != digits[i]])
    return digits[:i] + wrong + digits[i + 1 :]


def _indian_grouped(value: int) -> str:
    s = str(value)
    if len(s) <= 3:
        return s
    head, tail = s[:-3], s[-3:]
    groups = []
    while len(head) > 2:
        groups.insert(0, head[-2:])
        head = head[:-2]
    return ",".join([head, *groups, tail])


def phone(rng, lang):
    digits = _digits(rng, 10, "6789")
    ref = f"{digits[:5]} {digits[5:]}" if rng.random() < 0.6 else digits
    roll = rng.random()
    if roll < 0.55:
        hyp = ref
    elif roll < 0.75:
        hyp = digits if " " in ref else f"{digits[:5]} {digits[5:]}"
    else:
        hyp = _mangle_digits(rng, digits)
    return ref, hyp


def card(rng, lang):
    digits = _digits(rng, 16, "3456")
    ref = " ".join(digits[i : i + 4] for i in range(0, 16, 4))
    hyp = ref if rng.random() < 0.7 else _mangle_digits(rng, digits)
    return ref, hyp


def pincode(rng, lang):
    ref = _digits(rng, 6, "12345678")
    roll = rng.random()
    hyp = ref if roll < 0.6 else " ".join(ref) if roll < 0.75 else _mangle_digits(rng, ref)
    return ref, hyp


def currency(rng, lang):
    count = rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 50))
    mult = rng.choice((1000, 100000, 10000000))
    value = count * mult
    words = f"{NUMBER_WORDS[lang][count]} {MULTIPLIER_WORDS[lang][mult]}"
    form = rng.randrange(4)
    if form == 0:
        ref = words + (f" {RUPEE_WORD[lang]}" if rng.random() < 0.5 else "")
    elif form == 1:
        ref = f"₹{_indian_grouped(value)}"
    elif form == 2:
        ref = f"{count} {LATIN_MULTIPLIERS[mult]}"
    else:
        ref = f"{value:,} rupees"
    roll = rng.random()
    if roll < 0.4:
        hyp = ref
    elif roll < 0.6:
        hyp = str(value) if form == 0 else words
    elif roll < 0.75:
        hyp = f"₹{_indian_grouped(value)}" if form != 1 else f"{count} {LATIN_MULTIPLIERS[mult]}"
    else:
        hyp = f"₹{_indian_grouped(value + value // 10)}"
    return ref, hyp


def brand(rng, lang):
    if rng.random() < 0.2:
        name = rng.choice(UNLISTED_BRANDS)
        ref, alias = name, name.lower()
    else:
        name, aliases = rng.choice(BRANDS)
        ref = name if rng.random() < 0.75 else aliases[lang]
        alias = aliases[lang] if ref == name else name
    roll = rng.random()
    if roll < 0.45:
        hyp = ref
    elif roll < 0.75:
        hyp = alias
    else:
        hyp = ref[:-1] + "ime"
    return ref, hyp


def proper_noun(rng, lang):
    ref = rng.choice(PROPER_NOUNS[lang])
    words = ref.split()
    roll = rng.random()
    if roll < 0.6:
        hyp = ref
    elif roll < 0.8:
        hyp = " ".join(words[:-1] + [words[-1][:-1]])
    else:
        hyp = " ".join(words[1:] or words)
    return ref, hyp


def spelled_digit(rng, lang):
    digits = [rng.randrange(10) for _ in range(rng.randint(4, 6))]
    ref = " ".join(NUMBER_WORDS[lang][d] for d in digits)
    roll = rng.random()
    if roll < 0.5:
        hyp = ref
    elif roll < 0.7:
        hyp = "".join(map(str, digits))
    else:
        hyp = " ".join(NUMBER_WORDS[lang][d] for d in digits[:-1])
    return ref, hyp


def house(rng, lang):
    if rng.random() < 0.6:
        ref = f"{rng.randint(1, 20)}-{rng.randint(1, 9)}-{rng.randint(1, 999)}/{rng.randint(1, 99)}"
    else:
        ref = f"{rng.randint(1, 400)}/{rng.randint(1, 40)}{rng.choice('ABCD')}"
    roll = rng.random()
    hyp = ref if roll < 0.65 else ref.replace("-", " ") if roll < 0.85 else ref.replace("/", " ")
    return ref, hyp


ENTITY_MAKERS = {
    "digit_run": lambda rng, lang: (card if rng.random() < 0.25 else phone)(rng, lang),
    "pincode": pincode,
    "currency_amount": currency,
    "brand": brand,
    "proper_noun": proper_noun,
    "spelled_digit": spelled_digit,
    "house_or_plot": house,
}


# ---------------------------------------------------------------------------
# Utterances
# ---------------------------------------------------------------------------

def _edit_chars(rng: random.Random, word: str, rate: float, lang: str) -> str:
    out = []
    for ch in word:
        if rng.random() >= rate:
            out.append(ch)
            continue
        roll = rng.random()
        if roll < 0.5:
            out.append(rng.choice(ALPHABET[lang]))
        elif roll < 0.75:
            out.append(ch + rng.choice(ALPHABET[lang]))
        # else: deletion
    return "".join(out)


class Utterance:
    """Reference and hypothesis built side by side from aligned segments."""

    def __init__(self, rng: random.Random, lang: str, edit_rate: float):
        self.rng, self.lang, self.edit_rate = rng, lang, edit_rate
        self.ref: list[str] = []
        self.hyp: list[str] = []
        self.tokens: list[dict] = []

    def carrier(self, n: int = 1) -> None:
        for _ in range(n):
            word = self.rng.choice(CARRIER[self.lang])
            self.ref.append(word)
            if self.rng.random() < 0.04:
                self.hyp.append(self.rng.choice(LATIN_WORDS))
            else:
                hyp = _edit_chars(self.rng, word, self.edit_rate, self.lang)
                if hyp:
                    self.hyp.append(hyp)

    def latin(self) -> None:
        word = self.rng.choice(LATIN_WORDS)
        self.ref.append(word)
        self.hyp.append(word)

    def entity(self, cls: str) -> None:
        ref, hyp = ENTITY_MAKERS[cls](self.rng, self.lang)
        self.ref.append(ref)
        self.hyp.append(hyp)
        self.tokens.append({"surface": ref, "matcher_class": cls})

    def adjacent_phone_pincode(self) -> None:
        self.entity("digit_run")
        self.entity("pincode")

    def length(self) -> int:
        return len(" ".join(self.ref))

    @property
    def ref_text(self) -> str:
        return " ".join(self.ref)

    @property
    def hyp_text(self) -> str:
        return " ".join(self.hyp)


def _holdout_record(row_id: str, utt: Utterance, entity_class: str) -> dict:
    return {
        "id": row_id,
        "text": utt.ref_text,
        "language": utt.lang,
        "entity_class": entity_class,
        "entity_tokens": utt.tokens,
    }


def _long_te_lengths(rng: random.Random, rows: int) -> list[int]:
    """Target lengths: 40 + exponential with mean 60, capped at 300 characters.

    Drawn one per quantile stratum, then shuffled, so that every seed gets
    the same length profile: the edit-distance work grows with the square
    of the length, and plain draws would make it vary widely across seeds.
    """
    lengths = [min(300, 40 + int(-60 * math.log(1 - (i + rng.random()) / rows))) for i in range(rows)]
    rng.shuffle(lengths)
    return lengths


def _long_te_row(rng: random.Random, target: int) -> Utterance:
    utt = Utterance(rng, "te", edit_rate=0.08)
    roll = rng.random()
    n_entities = 0 if roll < 0.08 else 2 if roll > 0.85 else 1
    slots = sorted(rng.random() for _ in range(n_entities))
    while utt.length() < target:
        if slots and utt.length() >= slots[0] * target:
            slots.pop(0)
            if rng.random() < 0.1:
                utt.adjacent_phone_pincode()
            else:
                utt.entity(rng.choice(MATCHER_CLASSES))
        elif rng.random() < 0.05:
            utt.latin()
        else:
            utt.carrier()
    for _ in slots:
        utt.entity(rng.choice(MATCHER_CLASSES))
    return utt


def _dense_row(rng: random.Random, lang: str) -> Utterance:
    utt = Utterance(rng, lang, edit_rate=0.03)
    if rng.random() < 0.5:
        utt.carrier()
    if rng.random() < 0.15:
        utt.adjacent_phone_pincode()
        classes = rng.sample(MATCHER_CLASSES, rng.randint(1, 3))
    else:
        classes = rng.sample(MATCHER_CLASSES, rng.randint(3, 5))
    for cls in classes:
        if rng.random() < 0.15:
            utt.carrier()
        utt.entity(cls)
    return utt


def _count(records: list[dict]) -> dict:
    per_class: dict[str, int] = {}
    for record in records:
        for token in record["entity_tokens"]:
            per_class[token["matcher_class"]] = per_class.get(token["matcher_class"], 0) + 1
    return {"rows": len(records), "per_class": dict(sorted(per_class.items()))}


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def _write_score_files(out: Path, name: str, utts: list[tuple[str, Utterance, str]]) -> dict:
    holdout = [_holdout_record(row_id, utt, cls) for row_id, utt, cls in utts]
    predictions = [{"id": row_id, "hypothesis": utt.hyp_text, "system": SYSTEM} for row_id, utt, _ in utts]
    _write_jsonl(out / f"{name}.holdout.jsonl", holdout)
    _write_jsonl(out / f"{name}.predictions.jsonl", predictions)
    return _count(holdout)


def _write_aliases(path: Path) -> None:
    lines = ["# canonical\taliases..."]
    for name, aliases in BRANDS:
        lines.append("\t".join([name, name.lower(), *(aliases[lang] for lang in LANGS)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _entity_class(utt: Utterance) -> str:
    classes = {t["matcher_class"] for t in utt.tokens}
    if any(ch.isascii() and ch.isalpha() for t in utt.tokens for ch in t["surface"]) and "brand" in classes:
        return "codemix"
    return "mixed" if len(classes) > 1 else next(iter(classes), "none")


def gen_score_long_te(rng: random.Random, out: Path, rows: int) -> dict:
    utts = []
    for i, target in enumerate(_long_te_lengths(rng, rows)):
        utt = _long_te_row(rng, target)
        utts.append((f"te-{i:06d}", utt, _entity_class(utt)))
    return {"te": _write_score_files(out, "te", utts)}


def gen_score_entity_dense(rng: random.Random, out: Path, rows: int) -> dict:
    _write_aliases(out / "aliases.tsv")
    meta = {}
    for lang in LANGS:
        utts = []
        for i in range(rows):
            utt = _dense_row(rng, lang)
            utts.append((f"{lang}-{i:06d}", utt, _entity_class(utt)))
        meta[lang] = _write_score_files(out, lang, utts)
    return meta


# ---------------------------------------------------------------------------
# Synthesis manifest
# ---------------------------------------------------------------------------

CORPUS_ENTITIES = {
    "digits": ("digit_run", "pincode"),
    "currency": ("currency_amount",),
    "addresses": ("house_or_plot", "pincode", "proper_noun"),
    "brands": ("brand",),
    "codemix": ("brand",),
    "proper_nouns": ("proper_noun",),
}


def _manifest_row(rng: random.Random, row_id: str, lang: str, corpus_class: str) -> dict:
    utt = Utterance(rng, lang, edit_rate=0.0)
    utt.carrier(rng.randint(1, 3))
    choices = CORPUS_ENTITIES[corpus_class]
    for _ in range(rng.randint(1, 2)):
        cls = rng.choice(choices)
        if corpus_class == "digits" and cls == "pincode":
            cls = "digit_run" if rng.random() < 0.5 else cls
        utt.entity(cls)
        utt.carrier(rng.randint(0, 3))
    if corpus_class == "codemix":
        for _ in range(rng.randint(1, 4)):
            utt.latin()
    roll = rng.random()
    if roll < 0.04:
        utt.ref = utt.ref[:2]  # too short, and may drop an entity surface
    elif roll < 0.07:
        utt.carrier(24)
    text = utt.ref_text
    if corpus_class in BARE_STRING_CLASSES and all(
        t["matcher_class"] == CORPUS_ENTITIES[corpus_class][0] for t in utt.tokens
    ):
        tokens: list = [t["surface"] for t in utt.tokens]
    else:
        tokens = utt.tokens
    return {
        "id": row_id,
        "text": text,
        "language": lang,
        "corpus_class": corpus_class,
        "status": "synthesized",
        "cer_against_source": round(rng.betavariate(1.3, 5.0), 4),
        "entity_tokens": tokens,
    }


def gen_corpus_pipeline(rng: random.Random, out: Path, rows: int) -> dict:
    records = []
    for i in range(rows):
        lang = LANGS[i % len(LANGS)]
        corpus_class = CORPUS_CLASSES[rng.randrange(len(CORPUS_CLASSES))]
        records.append(_manifest_row(rng, f"m-{lang}-{i:06d}", lang, corpus_class))
    currency = [r for r in records if r["corpus_class"] == "currency"]
    _write_jsonl(out / "manifest.jsonl", records)
    _write_jsonl(out / "manifest.currency.jsonl", currency)
    per_class: dict[str, int] = {}
    for record in records:
        per_class[record["corpus_class"]] = per_class.get(record["corpus_class"], 0) + 1
    return {"rows": len(records), "currency_rows": len(currency), "per_corpus_class": dict(sorted(per_class.items()))}


GENERATORS = {
    "score_long_te": gen_score_long_te,
    "score_entity_dense": gen_score_entity_dense,
    "corpus_pipeline": gen_corpus_pipeline,
}


def generate(workload: str, seed: int, out: Path, rows: int) -> dict:
    """Write the workload's input files into ``out`` and return their counts."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    meta = GENERATORS[workload](rng, out, rows)
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out, workloads.SIZES[args.workload]), sort_keys=True))


if __name__ == "__main__":
    main()
