package main

// Pinned outputs of the program. The SBR figures are Table IV's
// per-segment response bytes (client <- CDN, CDN <- origin) for each
// vendor's exploited range case; the OBR figures are Table V's. A run
// whose output differs counts a failure.

// sbrExpect is one Table IV cell.
type sbrExpect struct {
	Client, Origin int64
	Factor         int // Table IV's rounded amplification factor
}

// table4 is indexed by vendor name, then by position in sbrSizesMB.
var table4 = map[string][3]sbrExpect{
	"akamai":     {{606, 1048971, 1731}, {607, 10486156, 17275}, {607, 26214797, 43187}},
	"alibaba":    {{1009, 1048971, 1040}, {1012, 10486156, 10362}, {1012, 26214797, 25904}},
	"azure":      {{726, 1048971, 1445}, {739, 10490312, 14195}, {739, 16781769, 22709}},
	"cdn77":      {{647, 1048971, 1621}, {648, 10486156, 16182}, {648, 26214797, 40455}},
	"cdnsun":     {{675, 1048971, 1554}, {676, 10486156, 15512}, {676, 26214797, 38779}},
	"cloudflare": {{821, 1048971, 1278}, {822, 10486156, 12757}, {822, 26214797, 31891}},
	"cloudfront": {{771, 1049024, 1361}, {1117, 10486211, 9388}, {1117, 10486212, 9388}},
	"fastly":     {{822, 1048971, 1276}, {823, 10486156, 12741}, {823, 26214797, 31853}},
	"gcore":      {{603, 1048971, 1740}, {604, 10486156, 17361}, {604, 26214797, 43402}},
	"huawei":     {{731, 1048971, 1435}, {720, 10486156, 14564}, {720, 26214797, 36409}},
	"keycdn":     {{1475, 1049408, 711}, {1477, 10486594, 7100}, {1478, 26215236, 17737}},
	"stackpath":  {{805, 1049408, 1304}, {806, 10486594, 13011}, {806, 26215236, 32525}},
	"tencent":    {{806, 1048971, 1301}, {807, 10486156, 12994}, {807, 26214797, 32484}},
}

// obrExpect is one Table V cascade.
type obrExpect struct {
	FCDN, BCDN       string
	N                int
	Attacker, Victim int64  // bcdn-origin (capture view), fcdn-bcdn response bytes
	Factor           string // Table V's factor, two decimals
}

// obrPairs are Table V's 11 vulnerable FCDN -> BCDN cascades in table order.
var obrPairs = []obrExpect{
	{"cdn77", "akamai", 5455, 1657, 6317584, "3812.66"},
	{"cdn77", "azure", 64, 1657, 86314, "52.09"},
	{"cdn77", "stackpath", 5455, 1657, 6405095, "3865.48"},
	{"cdnsun", "akamai", 5456, 1657, 6318741, "3813.36"},
	{"cdnsun", "azure", 64, 1657, 86313, "52.09"},
	{"cdnsun", "stackpath", 5456, 1657, 6406268, "3866.18"},
	{"cloudflare", "akamai", 10773, 1657, 12475829, "7529.17"},
	{"cloudflare", "azure", 64, 1657, 86314, "52.09"},
	{"cloudflare", "stackpath", 10773, 1657, 12648428, "7633.33"},
	{"stackpath", "akamai", 10885, 1657, 12607110, "7608.39"},
	{"stackpath", "azure", 64, 1657, 88019, "53.12"},
}
