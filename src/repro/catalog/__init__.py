"""Synthetic 18-domain e-commerce catalog: domains, products, queries."""

from repro.catalog.domains import DOMAIN_NAMES, Domain, all_domains
from repro.catalog.products import Product, ProductCatalog, build_catalog
from repro.catalog.queries import Query, QueryLog, SpecificityService, build_queries

__all__ = [
    "DOMAIN_NAMES",
    "Domain",
    "all_domains",
    "Product",
    "ProductCatalog",
    "build_catalog",
    "Query",
    "QueryLog",
    "SpecificityService",
    "build_queries",
]
