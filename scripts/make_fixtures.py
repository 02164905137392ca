#!/usr/bin/env python3
"""Regenerate the bundled mini knowledge base, mini corpus and golden
predictions under data/.

The corpus is authored as (surface, annotation) parts so mention offsets
are always exact. Golden predictions are produced by the independent
reference pipeline from tests/oracles.py, never by the package's own
linker, and every intended decision is asserted before anything is
written. Run from the repository root:

    python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from peyvand.corpus import NIL, Document, Mention, load_corpus, save_corpus, write_predictions
from peyvand.kb import NerType, PosCategory, load_kb
from peyvand.linker import LinkerConfig

from oracles import oracle_link_document

DATA = ROOT / "data"

# ---------------------------------------------------------------------------
# Mini knowledge base: 33 entities, ~79 distinct aliases, ~48 directed links.
# Engineered ambiguities:
#   "تهران"     city E01 vs university E08 (variant)
#   "پرسپولیس"  football club E05 vs ancient site E06 (variant)
#   "شهریار"    footballer nickname E10 vs small city E32 (rare) vs poet E33
#   "مس"        football club E27 (variant) vs the metal E29
#   "پاریس"     the capital E30 vs a blocklisted village E31
# E31 deliberately has no article text.

ENTITIES = [
    ("E01", "تهران", ["طهران", "شهر تهران"], "city", "LOC", "PROPER_NOUN",
     "تهران پایتخت ایران است و بزرگترین شهر کشور با جمعیت زیاد و آلودگی هوا",
     ["E02", "E08", "E21"], False),
    ("E02", "ایران", ["جمهوری اسلامی ایران", "پرشیا", "ایران زمین"], "country", "LOC", "PROPER_NOUN",
     "ایران کشوری در غرب آسیا است و پایتخت آن تهران است",
     ["E01"], False),
    ("E03", "اصفهان", ["نصف جهان", "اسپهان"], "city", "LOC", "PROPER_NOUN",
     "اصفهان شهر تاریخی ایران با میدان نقش جهان و پل خواجو است",
     ["E02", "E04", "E09"], False),
    ("E04", "سپاهان", ["باشگاه سپاهان", "سپاهان اصفهان"], "club", "ORG", "PROPER_NOUN",
     "سپاهان باشگاه فوتبال شهر اصفهان است که در لیگ برتر ایران بازی میکند",
     ["E03", "E05"], False),
    ("E05", "پرسپولیس", ["پیروزی", "باشگاه پرسپولیس", "سرخپوشان"], "club", "ORG", "PROPER_NOUN",
     "پرسپولیس باشگاه فوتبال تهران است و بازیهای خود را در ورزشگاه آزادی برگزار میکند",
     ["E01", "E07", "E20"], False),
    ("E06", "تخت جمشید", ["پرسپولیس", "پارسه"], "monument", "LOC", "PROPER_NOUN",
     "تخت جمشید بنای تاریخی نزدیک شیراز است که گردشگران زیادی از آن بازدید میکنند",
     ["E02", "E11"], False),
    ("E07", "استقلال", ["تاج", "باشگاه استقلال", "آبی پوشان"], "club", "ORG", "PROPER_NOUN",
     "استقلال باشگاه فوتبال تهران است و رقیب سنتی پرسپولیس در دربی پایتخت",
     ["E01", "E05"], False),
    ("E08", "دانشگاه تهران", ["تهران"], "university", "ORG", "PROPER_NOUN",
     "دانشگاه تهران قدیمیترین دانشگاه ایران است و دانشجویان زیادی در آن تحصیل میکنند",
     ["E01", "E02"], False),
    ("E09", "دانشگاه اصفهان", [], "university", "ORG", "PROPER_NOUN",
     "دانشگاه اصفهان از دانشگاههای بزرگ کشور است و در شهر اصفهان قرار دارد",
     ["E03"], False),
    ("E10", "علی دایی", ["دایی", "شهریار", "آقای گل"], "person", "PER", "PROPER_NOUN",
     "علی دایی فوتبالیست و مربی ایرانی است که آقای گل جهان لقب گرفت",
     ["E02", "E05"], False),
    ("E11", "شیراز", ["شهر راز"], "city", "LOC", "PROPER_NOUN",
     "شیراز شهر شعر و ادب ایران است و آرامگاه حافظ و سعدی در آن قرار دارد",
     ["E02", "E06", "E12"], False),
    ("E12", "حافظ", ["خواجه حافظ شیرازی", "لسان الغیب"], "person", "PER", "PROPER_NOUN",
     "حافظ شاعر بزرگ ایرانی است که دیوان شعر او در شیراز ماندگار شده است",
     ["E11"], False),
    ("E13", "فردوسی", ["حکیم ابوالقاسم فردوسی", "فردوسی طوسی"], "person", "PER", "PROPER_NOUN",
     "فردوسی شاعر حماسه سرای ایرانی و سراینده شاهنامه است",
     ["E02", "E14"], False),
    ("E14", "شاهنامه", ["شاهنامه فردوسی"], "book", "WORK", "PROPER_NOUN",
     "شاهنامه کتاب حماسی فارسی است که فردوسی آن را در سی سال سرود",
     ["E13"], False),
    ("E15", "مشهد", ["مشهد مقدس"], "city", "LOC", "PROPER_NOUN",
     "مشهد دومین شهر بزرگ ایران و مرکز استان خراسان رضوی است",
     ["E02"], False),
    ("E16", "چهل سالگی", ["چهل‌سالگی"], "film", "WORK", "PROPER_NOUN",
     "چهل سالگی فیلمی ایرانی است که داستان زندگی یک زوج را روایت میکند و در سینما اکران شد",
     ["E01"], False),
    ("E17", "جدایی نادر از سیمین", ["جدایی", "فیلم جدایی"], "film", "WORK", "PROPER_NOUN",
     "جدایی نادر از سیمین فیلم ایرانی برنده جایزه اسکار است که اصغر فرهادی کارگردان آن بود",
     ["E01", "E18"], False),
    ("E18", "اصغر فرهادی", ["فرهادی"], "person", "PER", "PROPER_NOUN",
     "اصغر فرهادی کارگردان سرشناس سینمای ایران و برنده دو جایزه اسکار است",
     ["E03", "E17"], False),
    ("E19", "مارمولک", ["فیلم مارمولک"], "film", "WORK", "PROPER_NOUN",
     "مارمولک فیلم کمدی ایرانی ساخته کمال تبریزی است که با استقبال مردم روبرو شد",
     ["E01"], False),
    ("E20", "ورزشگاه آزادی", ["آزادی", "استادیوم آزادی"], "stadium", "LOC", "PROPER_NOUN",
     "ورزشگاه آزادی بزرگترین ورزشگاه ایران در غرب تهران است و میزبان دربی پایتخت",
     ["E01", "E05", "E07"], False),
    ("E21", "برج میلاد", ["میلاد"], "monument", "LOC", "PROPER_NOUN",
     "برج میلاد از نمادهای شهر تهران است و از بلندترین برجهای جهان به شمار میرود",
     ["E01"], False),
    ("E22", "دیجی‌کالا", ["دیجیکالا", "فروشگاه دیجی کالا"], "company", "ORG", "PROPER_NOUN",
     "دیجی کالا بزرگترین فروشگاه اینترنتی ایران است که کالاهای گوناگون میفروشد",
     ["E01", "E02"], False),
    ("E23", "اسنپ", [], "company", "ORG", "PROPER_NOUN",
     "اسنپ سامانه درخواست خودرو اینترنتی در ایران است که سفر شهری را آسان کرد",
     ["E01"], False),
    ("E24", "آنفولانزا", ["آنفلوانزا", "گریپ"], "disease", "OTHER", "COMMON_NOUN",
     "آنفولانزا بیماری ویروسی واگیردار است که در فصل سرما شیوع مییابد و با تب و سرفه همراه است",
     [], False),
    ("E25", "دیابت", ["بیماری قند", "مرض قند"], "disease", "OTHER", "COMMON_NOUN",
     "دیابت بیماری مزمن قند خون است که با رژیم غذایی و ورزش کنترل میشود",
     [], False),
    ("E26", "تار", ["تار ایرانی"], "instrument", "OTHER", "COMMON_NOUN",
     "تار ساز زهی موسیقی ایرانی است که با مضراب نواخته میشود",
     ["E02"], False),
    ("E27", "مس کرمان", ["مس", "باشگاه مس"], "club", "ORG", "PROPER_NOUN",
     "مس کرمان باشگاه فوتبال شهر کرمان است که هواداران زیادی دارد",
     ["E28"], False),
    ("E28", "کرمان", ["شهر کرمان"], "city", "LOC", "PROPER_NOUN",
     "کرمان شهری در جنوب شرقی ایران و مرکز استان کرمان است",
     ["E02", "E27"], False),
    ("E29", "مس", ["فلز مس"], "material", "OTHER", "COMMON_NOUN",
     "مس فلزی رسانا است که در صنعت برق و ساخت سیم کاربرد فراوان دارد",
     [], False),
    ("E30", "پاریس", ["شهر نور", "پاریس فرانسه"], "city", "LOC", "PROPER_NOUN",
     "پاریس پایتخت فرانسه است و برج ایفل نماد این شهر به شمار میرود",
     [], False),
    ("E31", "پاریس (روستا)", ["پاریس"], "village", "LOC", "PROPER_NOUN",
     "",
     ["E02"], False),
    ("E32", "شهریار", ["شهر شهریار"], "city", "LOC", "PROPER_NOUN",
     "شهریار شهری در استان تهران است که باغهای میوه فراوان دارد",
     ["E01"], True),
    ("E33", "محمدحسین شهریار", ["شهریار", "استاد شهریار"], "person", "PER", "PROPER_NOUN",
     "محمدحسین شهریار شاعر ایرانی است که منظومه حیدربابا را به زبان ترکی سرود",
     ["E02"], False),
]

REFERENCE_LISTS = {
    "rare_blocklist": ["E31"],
    "class_filters": {
        "film": {
            "triggers": ["سینما", "فیلم", "بلیت", "اکران", "کارگردان"],
            "penalty": 0.5,
        },
        "book": {
            "triggers": ["کتاب", "رمان", "نویسنده", "شعر", "ادبیات"],
            "penalty": 0.6,
        },
    },
    "type_mapping": {
        "PER": ["person"],
        "LOC": ["city", "country", "monument", "stadium", "village", "province"],
        "ORG": ["club", "university", "company", "news_agency"],
        "WORK": ["film", "book"],
    },
    "stopwords": [
        "و", "در", "به", "از", "که", "با", "را", "این", "آن", "است", "بود",
        "شد", "برای", "تا", "هم", "یک", "خود", "او", "ما", "من", "بر", "یا",
        "اگر", "هر", "نیز", "شده", "می", "ها", "های", "آنها",
    ],
}

# ---------------------------------------------------------------------------
# Mini corpus: 12 documents authored as text parts. A dict part is a
# mention; gold is an entity id, None for an explicit NIL annotation, or
# the key is left out entirely for an unannotated mention.

_ABSENT = object()


def M(surface, ner=None, pos=None, gold=_ABSENT):
    return {"surface": surface, "ner": ner, "pos": pos, "gold": gold}


DOCS = [
    ("d01", "sport", [
        M("پرسپولیس", ner="ORG", pos="PROPER_NOUN", gold="E05"),
        " در ",
        M("ورزشگاه آزادی", ner="LOC", pos="PROPER_NOUN", gold="E20"),
        " برابر ",
        M("سپاهان", ner="ORG", pos="PROPER_NOUN", gold="E04"),
        " به پیروزی رسید و هواداران فوتبال شادی کردند.",
    ]),
    ("d02", "sport", [
        M("شهریار", ner="PER", gold="E10"),
        " فوتبال ایران ",
        M("علی دایی", ner="PER", pos="PROPER_NOUN", gold="E10"),
        " است که سالها برای ",
        M("پرسپولیس", ner="ORG", pos="PROPER_NOUN", gold="E05"),
        " گل زد.",
    ]),
    ("d03", "travel", [
        "گردشگران در سفر به ",
        M("شیراز", ner="LOC", pos="PROPER_NOUN", gold="E11"),
        " از ",
        M("پرسپولیس", gold="E06"),
        " دیدن کردند و از کوه ",
        M("دنا", ner="LOC", pos="PROPER_NOUN", gold=None),
        " عکس گرفتند.",
    ]),
    ("d04", "travel", [
        "مسافران ایرانی برای بازدید از برج ایفل به ",
        M("پاریس", ner="LOC", pos="PROPER_NOUN", gold="E30"),
        " سفر کردند. هزینه این سفر بالا بود.",
    ]),
    ("d05", "fun", [
        M("شهریار", gold="E33"),
        " و ",
        M("ایران", ner="LOC", pos="PROPER_NOUN", gold="E02"),
        " موضوع برنامه امشب شبکه چهار بودند.",
    ]),
    ("d06", "art", [
        "فیلم ",
        M("جدایی", ner="WORK", pos="PROPER_NOUN", gold="E17"),
        " در سینما اکران شد و ",
        M("اصغر فرهادی", ner="PER", pos="PROPER_NOUN", gold="E18"),
        " جایزه بهترین کارگردان را گرفت.",
    ]),
    ("d07", "health", [
        "روانشناسان میگویند ",
        M("چهل سالگی", gold=None),
        " دوران آرامش و پختگی ذهن انسان است. آیا این سن برای شما هم آرام بود؟",
    ]),
    ("d08", "art", [
        "مردم برای تماشای فیلم ",
        M("چهل سالگی", ner="WORK", pos="PROPER_NOUN", gold="E16"),
        " بلیت سینما را پیش خرید کردند تا اکران را ببینند.",
    ]),
    ("d09", "academic", [
        M("دانشگاه تهران", ner="ORG", pos="PROPER_NOUN", gold="E08"),
        " تحصیل حضوری دانشجویان را به دلیل شیوع بیماری ",
        M("آنفلوانزا", pos="COMMON_NOUN", gold="E24"),
        " متوقف کرد.",
    ]),
    ("d10", "economy", [
        "قیمت جهانی ",
        M("مس", pos="COMMON_NOUN", gold="E29"),
        " بالا رفت و صنعت برق ",
        M("ایران", ner="LOC", pos="PROPER_NOUN"),
        " با افزایش هزینه سیم و کابل روبرو شد.",
    ]),
    ("d11", "it_news", [
        M("دیجی‌کالا", ner="ORG", pos="PROPER_NOUN", gold="E22"),
        " نسخه تازه اپلیکیشن خرید اینترنتی خود را برای کاربران ",
        M("تهران", ner="LOC", pos="PROPER_NOUN", gold="E01"),
        " عرضه کرد.",
    ]),
    ("d12", "game", [
        "بازی تازه استودیو ایرانی با الهام از ",
        M("شاهنامه", ner="WORK", pos="PROPER_NOUN", gold="E14"),
        " ساخته شد و ",
        M("فردوسی", ner="PER", pos="PROPER_NOUN", gold="E13"),
        " قهرمان آن است.",
    ]),
]

# Decisions the reference pipeline must reach at default config; "NIL"
# marks abstention. d05 is an engineered exact tie that the id rule
# resolves to E10 even though the annotation says E33.
EXPECTED_DECISIONS = {
    "d01": ["E05", "E20", "E04"],
    "d02": ["E10", "E10", "E05"],
    "d03": ["E11", "E06", "NIL"],
    "d04": ["E30"],
    "d05": ["E10", "E02"],
    "d06": ["E17", "E18"],
    "d07": ["NIL"],
    "d08": ["E16"],
    "d09": ["E08", "E24"],
    "d10": ["E29", "NIL"],
    "d11": ["E22", "E01"],
    "d12": ["E14", "E13"],
}


def write_kb(path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entity_id, label, variants, cls, ner, pos, article, links, rare in ENTITIES:
            record = {
                "id": entity_id,
                "label": label,
                "variants": variants,
                "class": cls,
                "ner_type": ner,
                "pos": pos,
                "article": article,
                "links": links,
            }
            if rare:
                record["rare"] = True
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_corpus(path: Path) -> None:
    docs = []
    for doc_id, category, parts in DOCS:
        text = ""
        mentions = []
        for part in parts:
            if isinstance(part, str):
                text += part
                continue
            start = len(text)
            text += part["surface"]
            ner = NerType(part["ner"]) if part["ner"] else None
            pos = PosCategory(part["pos"]) if part["pos"] else None
            gold = part["gold"]
            gold = None if gold is _ABSENT else NIL if gold is None else gold
            mentions.append(Mention(start, len(text), part["surface"], ner, pos, gold))
        docs.append(Document(doc_id, category, text, mentions))
    save_corpus(docs, path)


def main() -> None:
    DATA.mkdir(exist_ok=True)
    write_kb(DATA / "mini_kb.jsonl")
    (DATA / "reference_lists.json").write_text(
        json.dumps(REFERENCE_LISTS, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    write_corpus(DATA / "mini_corpus.jsonl")
    (DATA / "default_config.json").write_text(
        json.dumps(LinkerConfig().to_dict(), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )

    kb, lists, _ = load_kb(DATA / "mini_kb.jsonl", DATA / "reference_lists.json")
    docs = load_corpus(DATA / "mini_corpus.jsonl")
    cfg = LinkerConfig()

    results = []
    for doc in docs:
        doc_results = oracle_link_document(kb, lists, cfg, doc)
        decisions = [r.decision if isinstance(r.decision, str) else "NIL" for r in doc_results]
        expected = EXPECTED_DECISIONS[doc.id]
        assert decisions == expected, f"{doc.id}: got {decisions}, designed {expected}"
        results.append(doc_results)
    write_predictions(docs, results, DATA / "golden_predictions.jsonl")

    from peyvand.corpus import corpus_stats

    stats = corpus_stats(docs, kb)
    print(f"entities        {len(kb.entities)}")
    print(f"aliases         {len(kb.alias_index)}")
    print(f"directed links  {sum(len(e.out_links) for e in kb.entities.values())}")
    print(f"doc_count       {kb.doc_count}")
    print(f"stats           {stats}")
    for doc, doc_results in zip(docs, results):
        trace = ", ".join(
            f"{m.surface}->{r.decision if isinstance(r.decision, str) else 'NIL'}({r.score:.4f})"
            for m, r in zip(doc.mentions, doc_results)
        )
        print(f"  {doc.id} [{doc.category}] {trace}")


if __name__ == "__main__":
    main()
