"""Seeded synthetic workloads: a KB dump, reference lists and a gold corpus.

Everything is drawn from one `random.Random` seeded with the workload name
and the seed, so the same seed yields byte-identical files. The text is
Persian-shaped on purpose, so the default normalizer does real work:
Arabic kaf/yeh spellings, ZWNJ inside compounds, stray tatweel and
diacritics, multi-word labels, stopwords and class-filter triggers.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

LETTERS = "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"
ZWNJ = "‌"
TATWEEL = "ـ"
FATHA = "َ"
# Same stopwords, triggers and type mapping as the bundled reference lists.
STOPWORDS = (
    "و در به از که با را این آن است بود شد برای تا هم یک خود او ما من بر یا اگر هر نیز "
    "شده می ها های آنها"
).split()
CLASS_FILTERS = {
    "film": {"triggers": ["سینما", "فیلم", "بلیت", "اکران", "کارگردان"], "penalty": 0.5},
    "book": {"triggers": ["کتاب", "رمان", "نویسنده", "شعر", "ادبیات"], "penalty": 0.6},
}
TYPE_MAPPING = {
    "PER": ["person"],
    "LOC": ["city", "country", "monument", "stadium", "village", "province"],
    "ORG": ["club", "university", "company", "news_agency"],
    "WORK": ["film", "book"],
}
# class -> (ner_type, pos); OTHER classes have no type mapping and are
# common nouns, so the type filter passes them and the POS filter bites.
CLASSES = {
    "person": ("PER", "PROPER_NOUN"),
    "city": ("LOC", "PROPER_NOUN"),
    "village": ("LOC", "PROPER_NOUN"),
    "stadium": ("LOC", "PROPER_NOUN"),
    "club": ("ORG", "PROPER_NOUN"),
    "university": ("ORG", "PROPER_NOUN"),
    "company": ("ORG", "PROPER_NOUN"),
    "film": ("WORK", "PROPER_NOUN"),
    "book": ("WORK", "PROPER_NOUN"),
    "disease": ("OTHER", "COMMON_NOUN"),
}
CATEGORIES = ("sport", "politics", "culture", "science", "economy")
PUNCT = (".", "،", "!", "؟")


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload. `per_surface` is the mean number of entities
    sharing a label; `zipf_s` None draws gold entities uniformly."""

    name: str
    entities: int
    article_words: int
    per_surface: float
    docs: int
    doc_words: int
    mentions_per_doc: int
    zipf_s: float | None
    nil_share: float
    oracle_docs: int

    def scaled(self, factor: float) -> "WorkloadSpec":
        """Same shape with fewer entities, documents and oracle documents."""
        return replace(
            self,
            entities=max(30, int(self.entities * factor)),
            docs=max(5, int(self.docs * factor)),
            oracle_docs=max(1, int(self.oracle_docs * factor)),
        )


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="longtail",
            entities=5000,
            article_words=80,
            per_surface=6.0,
            docs=150,
            doc_words=24,
            mentions_per_doc=4,
            zipf_s=None,
            nil_share=0.05,
            oracle_docs=4,
        ),
        WorkloadSpec(
            name="firehose",
            entities=200,
            article_words=40,
            per_surface=1.15,
            docs=2500,
            doc_words=20,
            mentions_per_doc=2,
            zipf_s=1.1,
            nil_share=0.4,
            oracle_docs=30,
        ),
        WorkloadSpec(
            name="longform",
            entities=800,
            article_words=40,
            per_surface=8.0,
            docs=100,
            doc_words=80,
            mentions_per_doc=16,
            zipf_s=None,
            nil_share=0.05,
            oracle_docs=1,
        ),
    )
}


@dataclass(frozen=True)
class Workload:
    """Paths of the generated files."""

    kb: Path
    lists: Path
    corpus: Path


class _Gen:
    def __init__(self, spec: WorkloadSpec, seed: int):
        self.rng = random.Random(f"peyvand-bench:{spec.name}:{seed}")
        self.used_words: set[str] = set(STOPWORDS)

    def word(self, low: int = 3, high: int = 7) -> str:
        rng = self.rng
        while True:
            w = "".join(rng.choice(LETTERS) for _ in range(rng.randint(low, high)))
            if w not in self.used_words:
                self.used_words.add(w)
                return w

    def spell(self, word: str) -> str:
        """A surface spelling of `word` that the Persian normalizer folds
        back: Arabic kaf/yeh, a ZWNJ inside, tatweel or a diacritic."""
        rng = self.rng
        r = rng.random()
        if r < 0.15:
            return word.replace("ک", "ك").replace("ی", "ي")
        if r < 0.22 and len(word) > 3:
            cut = rng.randint(2, len(word) - 2)
            return word[:cut] + ZWNJ + word[cut:]
        if r < 0.25 and len(word) > 2:
            cut = rng.randint(1, len(word) - 1)
            return word[:cut] + rng.choice((TATWEEL, FATHA)) + word[cut:]
        return word


def _zipf_cdf(n: int, s: float) -> list[float]:
    weights = list(itertools.accumulate(1.0 / (k**s) for k in range(1, n + 1)))
    return [w / weights[-1] for w in weights]


def _group_sizes(n: int, per_surface: float, rng: random.Random) -> list[int]:
    """Sizes of the groups of entities that share a label: they sum to `n`
    and average `per_surface`. Below 2 the groups are pairs and singles;
    from 2 up they cycle through mean-2 .. mean+2."""
    if per_surface < 2:
        pairs = round(n * (1 - 1 / per_surface))
        sizes = [2] * pairs + [1] * (n - 2 * pairs)
    else:
        mean = int(per_surface)
        cycle = list(range(max(1, mean - 2), mean + 3))
        sizes = []
        while sum(sizes) < n:
            sizes.append(cycle[len(sizes) % len(cycle)])
        sizes[-1] -= sum(sizes) - n
    rng.shuffle(sizes)
    return sizes


def _interleaved(order: list[int], group_size: list[int]) -> list[int]:
    """Entities by popularity rank: each group size takes ranks evenly
    spread over the whole range, so under a Zipf draw the share of
    mentions with shared labels, and so the candidates per mention, is
    the same on every seed. Within a size, `order` (shuffled) decides."""
    by_size: dict[int, list[int]] = {}
    for e in order:
        by_size.setdefault(group_size[e], []).append(e)
    keyed = [
        ((i + 0.5) / len(members), size, e)
        for size, members in sorted(by_size.items())
        for i, e in enumerate(members)
    ]
    keyed.sort()
    return [e for _, _, e in keyed]


def generate(spec: WorkloadSpec, seed: int, outdir: Path) -> Workload:
    """Write `kb.jsonl`, `lists.json` and `corpus.jsonl` under `outdir`."""
    g = _Gen(spec, seed)
    rng = g.rng
    outdir.mkdir(parents=True, exist_ok=True)

    general = [g.word() for _ in range(2500)]
    general_cdf = _zipf_cdf(len(general), 1.0)

    def general_word() -> str:
        return general[bisect.bisect_left(general_cdf, rng.random())]

    # Communities give the link graph its coherence: entities link inside
    # their community, and a document mentions one community.
    n = spec.entities
    community_size = 20
    communities = [list(range(i, min(i + community_size, n))) for i in range(0, n, community_size)]
    community_of = [i // community_size for i in range(n)]
    community_topic = [[g.word() for _ in range(8)] for _ in communities]
    own_topic = [[g.word() for _ in range(4)] for _ in range(n)]
    ids = [f"Q{i + 1}" for i in range(n)]

    # Surfaces: entity order is shuffled so namesakes fall in different
    # communities. Group sizes come from a fixed multiset in shuffled
    # order, so they average `per_surface` on every seed and the work per
    # mention varies little from seed to seed.
    order = list(range(n))
    rng.shuffle(order)
    labels: list[str] = [""] * n
    group_size = [1] * n
    pos = 0
    for size in _group_sizes(n, spec.per_surface, rng):
        words = rng.choice((1, 2, 2, 3))
        label = " ".join(g.word(4, 7) for _ in range(words))
        for e in order[pos : pos + size]:
            labels[e] = label
            group_size[e] = size
        pos += size

    # An entity's class and flags follow its popularity rank in a fixed
    # pattern, so the entities most mentioned under a Zipf draw, whose
    # filters decide most of the work, look alike on every seed.
    popularity = _interleaved(order, group_size)
    rank = [0] * n
    for r, e in enumerate(popularity):
        rank[e] = r
    every_100 = [popularity[(r + 100 * k) % n] for r in (37, 71) for k in range(max(1, n // 100))]
    rare = set(every_100[: len(every_100) // 2])
    blocked = set(every_100[len(every_100) // 2 :])

    classes = list(CLASSES)
    lines = []
    kinds = []
    for e in range(n):
        kb_class = classes[rank[e] % len(classes)]
        ner, pos_cat = CLASSES[kb_class]
        if rank[e] % 20 == 13:
            pos_cat = "UNKNOWN"
        kinds.append((kb_class, ner, pos_cat))
        article = []
        for _ in range(spec.article_words):
            r = rng.random()
            if r < 0.3:
                article.append(rng.choice(community_topic[community_of[e]]))
            elif r < 0.55:
                article.append(rng.choice(own_topic[e]))
            elif r < 0.7:
                article.append(rng.choice(STOPWORDS))
            else:
                article.append(general_word())
            if kb_class in CLASS_FILTERS and rng.random() < 0.02:
                article.append(rng.choice(CLASS_FILTERS[kb_class]["triggers"]))
        text = " ".join(g.spell(w) for w in article)
        members = communities[community_of[e]]
        links = {ids[m] for m in rng.sample(members, min(len(members), rng.randint(2, 5))) if m != e}
        if rng.random() < 0.3:
            links.add(ids[rng.randrange(n)])
        if rng.random() < 0.02:
            links.add(f"X{rng.randrange(10**6)}")  # outside the dump: dropped with a warning
        links.discard(ids[e])
        variants = []
        if rng.random() < 0.5:
            variants.append(g.spell(labels[e]))
        if rng.random() < 0.3:
            variants.append(labels[e] + " " + g.word(3, 5))
        record = {
            "id": ids[e],
            "label": labels[e],
            "variants": variants,
            "class": kb_class,
            "ner_type": ner,
            "pos": pos_cat,
            "article": text,
            "links": sorted(links),
        }
        if e in rare:
            record["rare"] = True
        lines.append(json.dumps(record, ensure_ascii=False))
    (outdir / "kb.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    blocklist = sorted(ids[e] for e in blocked)
    lists = {
        "rare_blocklist": blocklist,
        "class_filters": CLASS_FILTERS,
        "type_mapping": TYPE_MAPPING,
        "stopwords": STOPWORDS,
    }
    (outdir / "lists.json").write_text(
        json.dumps(lists, ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
    )

    known = set(labels)
    zipf = _zipf_cdf(n, spec.zipf_s) if spec.zipf_s else None

    def popular_entity() -> int:
        if zipf is None:
            return rng.randrange(n)
        return popularity[bisect.bisect_left(zipf, rng.random())]

    # Exactly `nil_share` of the mentions are out of the KB, in shuffled
    # places.
    total = spec.docs * spec.mentions_per_doc
    nils = round(total * spec.nil_share)
    is_nil = [True] * nils + [False] * (total - nils)
    rng.shuffle(is_nil)

    docs = []
    per_gap = max(1, spec.doc_words // (spec.mentions_per_doc + 1))
    for d in range(spec.docs):
        anchor = popular_entity()
        golds: list[int | None] = []
        for m in range(spec.mentions_per_doc):
            if is_nil[d * spec.mentions_per_doc + m]:
                golds.append(None)
            elif golds and rng.random() < 0.6:
                golds.append(rng.choice(communities[community_of[anchor]]))
            else:
                golds.append(anchor if not golds else popular_entity())
        text = ""
        mentions = []
        for gold in golds:
            for _ in range(rng.randint(per_gap // 2, per_gap + per_gap // 2)):
                r = rng.random()
                if r < 0.15:
                    w = rng.choice(STOPWORDS)
                elif r < 0.6 and gold is not None:
                    w = rng.choice(community_topic[community_of[gold]] + own_topic[gold])
                else:
                    w = general_word()
                text += g.spell(w) + (rng.choice(PUNCT) if rng.random() < 0.08 else "") + " "
            if gold is None:
                surface = " ".join(g.word(4, 7) for _ in range(rng.choice((1, 2))))
                while surface in known:
                    surface = g.word(4, 7)
                ner, pos_cat = rng.choice(list(CLASSES.values()))
            else:
                kb_class, ner, pos_cat = kinds[gold]
                surface = " ".join(g.spell(w) for w in labels[gold].split(" "))
                if kb_class in CLASS_FILTERS and rng.random() < 0.5:
                    text += rng.choice(CLASS_FILTERS[kb_class]["triggers"]) + " "
            mention = {"start": len(text), "end": len(text) + len(surface), "surface": surface}
            r = rng.random()
            if r < 0.8:
                mention["ner_type"] = ner
            elif r < 0.9:
                mention["ner_type"] = "UNKNOWN"
            if pos_cat != "UNKNOWN" and rng.random() < 0.7:
                mention["pos"] = pos_cat
            mention["gold"] = None if gold is None else ids[gold]
            mentions.append(mention)
            text += surface + " "
        text += " ".join(g.spell(general_word()) for _ in range(rng.randint(1, 4))) + "."
        category = CATEGORIES[(community_of[anchor]) % len(CATEGORIES)]
        docs.append(
            json.dumps(
                {"id": f"d{d + 1}", "category": category, "text": text, "mentions": mentions},
                ensure_ascii=False,
            )
        )
    (outdir / "corpus.jsonl").write_text("\n".join(docs) + "\n", encoding="utf-8")

    return Workload(outdir / "kb.jsonl", outdir / "lists.json", outdir / "corpus.jsonl")
